// Analytic operation accounting for FFT plans.
//
// Two counters, two purposes:
//
//   count_stockham_ops  the work the library executes: it walks the pruned
//                       Stockham schedule (fft/stockham.hpp) and counts the
//                       complex adds and twiddle multiplies of every pass
//                       kernel in fft/kernels.hpp.  FftPlan::flops_per_signal
//                       and every stage counter's FLOPs come from it.
//   count_pruned_ops    the paper's Figure-5 model: a radix-2 DIF network
//                       whose branches are pruned by output truncation
//                       (block_need) and input zero padding.  The Figure-5,
//                       Table-1 and prune-ablation benches print it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace turbofno::fft {

struct OpCount {
  std::uint64_t unit_ops = 0;  // butterfly outputs computed
  std::uint64_t cmul = 0;      // complex multiplies performed
  std::uint64_t cadd = 0;      // complex additions performed

  [[nodiscard]] std::uint64_t flops() const noexcept { return 6 * cmul + 2 * cadd; }
};

/// Ops the pruned Stockham schedule executes for an n-point transform that
/// keeps the first `keep` bins of an input whose first `nonzero` elements
/// are stored (0 means n).  Groups with p == 0 and one-leg butterflies carry
/// no multiply; the final 1/n scaling of an inverse is not counted.
OpCount count_stockham_ops(std::size_t n, std::size_t keep, std::size_t nonzero) noexcept;

/// Ops of the Figure-5 pruned DIF model: n-point, first `m` outputs needed,
/// first `p` inputs nonzero.
OpCount count_pruned_ops(std::size_t n, std::size_t m, std::size_t p) noexcept;

/// Ops of the unpruned n-point DIF model (m == p == n).
OpCount count_full_ops(std::size_t n) noexcept;

/// Figure-5 unit-op fraction retained vs the full transform, e.g. the
/// 4-point example: m=1 -> 0.375, m=2 -> 0.75.
double pruned_fraction(std::size_t n, std::size_t m, std::size_t p) noexcept;

/// Needed-output count of the block at `block_index` among `n/L` blocks of a
/// depth-d stage of the DIF model (L = n >> d) when only the first `m`
/// natural-order bins are required.
std::size_t block_need(std::size_t block_index, std::size_t depth, std::size_t m) noexcept;

}  // namespace turbofno::fft
