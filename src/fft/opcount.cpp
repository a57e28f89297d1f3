#include "fft/opcount.hpp"

#include <algorithm>

#include "fft/stockham.hpp"
#include "fft/twiddle.hpp"

namespace turbofno::fft {

namespace {

// Complex adds of one kernels::detail::butterfly over `legs` nonzero legs
// producing outputs k < nk.
std::uint64_t butterfly_adds(std::size_t radix, std::size_t legs, std::size_t nk) noexcept {
  if (legs == 1) return 0;  // every output is leg 0
  std::uint64_t adds = nk;  // the last add/sub of each output
  if (radix == 4) {
    // x0 +- x2 with three legs, x1 +- x3 with four: the sums feed y0 (and
    // y2), the differences y1 (and y3).
    const std::uint64_t pair = nk > 1 ? 2 : 1;
    if (legs > 2) adds += pair;
    if (legs > 3) adds += pair;
  }
  return adds;
}

}  // namespace

OpCount count_stockham_ops(std::size_t n, std::size_t keep, std::size_t nonzero) noexcept {
  OpCount c{};
  if (!is_pow2(n)) return c;
  keep = std::clamp<std::size_t>(keep == 0 ? n : keep, 1, n);
  nonzero = std::clamp<std::size_t>(nonzero == 0 ? n : nonzero, 1, n);
  for_each_pass(n, keep, nonzero, [&](const StockhamPass& ps) {
    // `width` sub-transforms per group, outputs k < nk (kernels::detail::run_groups).
    auto groups = [&](std::size_t width, std::size_t nk) {
      if (width == 0 || nk == 0) return;
      c.unit_ops += ps.l * width * nk;
      c.cadd += ps.l * width * butterfly_adds(ps.radix, ps.legs, nk);
      c.cmul += (ps.l - 1) * width * (nk - 1);
    };
    if (ps.truncated()) {
      groups(ps.keep % ps.s, ps.keep / ps.s + 1);
      groups(ps.s - ps.keep % ps.s, ps.keep / ps.s);
    } else {
      groups(ps.s, ps.radix);
    }
  });
  return c;
}

std::size_t block_need(std::size_t block_index, std::size_t depth, std::size_t m) noexcept {
  // Block `b` of the depth-d stage holds the bins k with
  // k mod 2^d == bit_reverse(b, d); of those, the ones below m number
  // ceil((m - r) / 2^d).
  const std::size_t r = bit_reverse(block_index, depth);
  const std::size_t stride = std::size_t{1} << depth;
  if (r >= m) return 0;
  return (m - r + stride - 1) >> depth;
}

OpCount count_pruned_ops(std::size_t n, std::size_t m, std::size_t p) noexcept {
  OpCount c{};
  if (!is_pow2(n)) return c;
  m = std::clamp<std::size_t>(m == 0 ? n : m, 1, n);
  p = std::clamp<std::size_t>(p == 0 ? n : p, 1, n);

  std::size_t depth = 0;
  for (std::size_t L = n; L >= 2; L /= 2, ++depth) {
    const std::size_t half = L / 2;
    const std::size_t nblocks = n / L;
    const std::size_t z = std::min(p, L);
    const std::size_t full_end = z > half ? z - half : 0;
    const std::size_t copy_end = std::min(z, half);

    for (std::size_t b = 0; b < nblocks; ++b) {
      const std::size_t need = block_need(b, depth, m);
      if (need == 0) continue;
      if (need >= 2) {
        // Full butterflies; j == 0 is twiddle-free when it falls in the full
        // region.
        if (full_end > 0) {
          c.unit_ops += 2;
          c.cadd += 2;
          for (std::size_t j = 1; j < full_end; ++j) {
            c.unit_ops += 2;
            c.cadd += 2;
            c.cmul += 1;
          }
        }
        // Zero upper input: odd output is a twiddle scale, even is a copy.
        for (std::size_t j = full_end; j < copy_end; ++j) {
          c.unit_ops += 1;
          c.cmul += 1;
        }
      } else {
        // Odd subtree pruned: sums only, and only where the upper input is
        // nonzero.
        c.unit_ops += full_end;
        c.cadd += full_end;
      }
    }
  }
  return c;
}

OpCount count_full_ops(std::size_t n) noexcept { return count_pruned_ops(n, n, n); }

double pruned_fraction(std::size_t n, std::size_t m, std::size_t p) noexcept {
  const OpCount full = count_full_ops(n);
  if (full.unit_ops == 0) return 0.0;
  return static_cast<double>(count_pruned_ops(n, m, p).unit_ops) /
         static_cast<double>(full.unit_ops);
}

}  // namespace turbofno::fft
