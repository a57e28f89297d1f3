// Stockham autosort FFT schedule (mixed radix-4/2, out-of-place passes).
//
// Every transform in the library runs this schedule: the autosort structure
// gives contiguous loads at every stage and natural-order output with no
// bit-reversal pass, the same property the paper relies on for coalesced
// global-memory reads (Section 3.2).  Truncated and zero-padded plans run it
// too; their passes only skip work (see StockhamPass and fft/kernels.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "tensor/complex.hpp"

namespace turbofno::fft {

/// Forward n-point transform of `io` (natural order in and out).
/// `work` must hold at least n elements; contents are scratch.
/// Precondition: n is a power of two, io.size() == n, work.size() >= n.
/// Mixed radix-4/2: radix-4 passes with a radix-2 tail for odd log2(n).
void stockham_forward(std::span<c32> io, std::span<c32> work, std::size_t n);

/// Inverse n-point transform; when `scale` is true the result is divided by
/// n (matching cuFFT's convention of unscaled inverse is `scale = false`).
void stockham_inverse(std::span<c32> io, std::span<c32> work, std::size_t n, bool scale);

/// Pure radix-2 variants, kept as the verification twin of the mixed-radix
/// kernel (tests assert both agree to rounding).
void stockham_forward_radix2(std::span<c32> io, std::span<c32> work, std::size_t n);
void stockham_inverse_radix2(std::span<c32> io, std::span<c32> work, std::size_t n, bool scale);

/// Every pass but the last computes whole runs of this many sub-transforms
/// (see for_each_pass), so a pruned q-run starts and ends where the dense
/// pass's packed vectors do.
inline constexpr std::size_t kKeepQuantum = 4;

/// One pass of the mixed-radix schedule of a (possibly pruned) transform.
/// Before the pass the data holds s interleaved sub-transforms of length
/// radix*l; element (q, p + j*l) of sub-transform q is butterfly leg j.
struct StockhamPass {
  std::size_t radix;  // 4, or 2 for the tail pass of an odd log2(n)
  std::size_t l;      // sub-transform length after the pass; 1 on the last
  std::size_t s;      // sub-transforms before the pass
  std::size_t legs;   // legs holding nonzero input; radix when dense
  std::size_t keep;   // outputs (q, k) with q + s*k < keep are needed

  [[nodiscard]] bool padded() const noexcept { return legs < radix; }
  [[nodiscard]] bool truncated() const noexcept { return keep < radix * s; }
  [[nodiscard]] bool last() const noexcept { return l == 1; }
};

/// Calls f(pass) for each pass of the n-point schedule whose input has
/// `nonzero` stored elements and whose first `keep` natural-order bins are
/// wanted (1 <= keep, nonzero <= n).
///
/// Input pruning: a pass over sub-transforms of length L = radix*l whose
/// nonzero prefix is z reads the legs j with j*l < z; z starts at nonzero
/// and becomes min(z, l) after each pass.  Output pruning: final bin q + s*k
/// only depends on output (q, k) of a pass, so a pass needs the outputs with
/// q + s*k < keep.  Passes before the last round keep up to kKeepQuantum.
template <class F>
void for_each_pass(std::size_t n, std::size_t keep, std::size_t nonzero, F&& f) {
  const std::size_t keep_mid =
      std::min(n, (keep + kKeepQuantum - 1) / kKeepQuantum * kKeepQuantum);
  std::size_t z = nonzero;
  std::size_t s = 1;
  for (std::size_t len = n; len > 1;) {
    const std::size_t radix = len % 4 == 0 ? 4 : 2;
    const std::size_t l = len / radix;
    z = std::min(z, len);
    f(StockhamPass{radix, l, s, (z + l - 1) / l, l == 1 ? keep : std::min(keep_mid, radix * s)});
    len = l;
    s *= radix;
  }
}

}  // namespace turbofno::fft
