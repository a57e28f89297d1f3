// Twiddle-factor tables shared by all FFT kernels.
//
// For a power-of-two size n the table stores, for every sub-transform length
// L in {2, 4, ..., n}, the segment tw[j] = exp(-2*pi*i*j/L), j < L/2.  The
// segment for length L starts at flat offset L/2 - 1, so the whole table is
// exactly n - 1 entries.  Every pass of the Stockham schedule, dense or
// pruned, reads the segment of its own sub-transform length L = radix * l.
#pragma once

#include <cstddef>
#include <span>

#include "tensor/aligned_buffer.hpp"
#include "tensor/complex.hpp"

namespace turbofno::fft {

class TwiddleTable {
 public:
  explicit TwiddleTable(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// Forward twiddles for sub-transform length L: tw[j] = e^{-2 pi i j / L}.
  [[nodiscard]] std::span<const c32> forward(std::size_t L) const noexcept {
    return {fwd_.data() + (L / 2 - 1), L / 2};
  }
  /// Inverse twiddles (conjugates) for sub-transform length L.
  [[nodiscard]] std::span<const c32> inverse(std::size_t L) const noexcept {
    return {inv_.data() + (L / 2 - 1), L / 2};
  }

 private:
  std::size_t n_;
  AlignedBuffer<c32> fwd_;
  AlignedBuffer<c32> inv_;
};

/// Process-wide cache of twiddle tables, keyed by transform size.  Thread
/// safe; returned references stay valid for the process lifetime.
const TwiddleTable& twiddles_for(std::size_t n);

/// True iff n is a supported FFT size (power of two, >= 2).
constexpr bool is_pow2(std::size_t n) noexcept { return n >= 2 && (n & (n - 1)) == 0; }

/// log2 of a power of two.
constexpr std::size_t log2u(std::size_t n) noexcept {
  std::size_t l = 0;
  while ((std::size_t{1} << l) < n) ++l;
  return l;
}

/// Reverses the low `bits` bits of v.
constexpr std::size_t bit_reverse(std::size_t v, std::size_t bits) noexcept {
  std::size_t r = 0;
  for (std::size_t i = 0; i < bits; ++i) {
    r = (r << 1) | ((v >> i) & 1u);
  }
  return r;
}

}  // namespace turbofno::fft
