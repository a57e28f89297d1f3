// Batched 1D FFT plans with built-in truncation and zero padding.
//
// This is the public FFT API of TurboFNO.  A plan is described by four
// quantities (mirroring the paper's built-in filtering, Section 3.3):
//
//   n        transform length (power of two)
//   dir      Forward | Inverse
//   keep     outputs produced: the first `keep` natural-order bins
//            ("truncation"; keep == n means a full transform)
//   nonzero  stored input prefix: elements [nonzero, n) are implicit zeros
//            ("zero padding"; nonzero == n means a dense input)
//
// Every plan runs the same mixed radix-4/2 Stockham schedule on the SIMD
// pass kernels (fft/stockham.hpp, fft/kernels.hpp).  Unlike cuFFT (which has
// no native filtering; the paper's Section 1 limitation #2), truncation and
// padding change the schedule's own load and store loops: the passes over a
// zero-padded input never read the zero legs (the first pass reads the
// stored prefix straight from the caller's buffer), the passes towards a
// truncated output compute only the bins that reach the first `keep`, and
// the last pass writes those bins straight to the caller's buffer.  No
// separate memory-copy pass ever materializes the full-length intermediate,
// and the result equals the dense transform of the zero-padded signal, cut
// to `keep` bins, bin for bin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/complex.hpp"

namespace turbofno::fft {

class TwiddleTable;

enum class Direction { Forward, Inverse };

struct PlanDesc {
  std::size_t n = 0;
  Direction dir = Direction::Forward;
  std::size_t keep = 0;     // 0 => n
  std::size_t nonzero = 0;  // 0 => n
  bool scale_inverse = true;

  [[nodiscard]] std::size_t keep_or_n() const noexcept { return keep == 0 ? n : keep; }
  [[nodiscard]] std::size_t nonzero_or_n() const noexcept { return nonzero == 0 ? n : nonzero; }
};

/// Memory layout of a batched execution.  Element strides are in c32 units;
/// batch strides of 0 mean "densely packed" (nonzero / keep elements apart).
struct ExecLayout {
  std::ptrdiff_t in_elem_stride = 1;
  std::ptrdiff_t in_batch_stride = 0;
  std::ptrdiff_t out_elem_stride = 1;
  std::ptrdiff_t out_batch_stride = 0;
};

class FftPlan {
 public:
  explicit FftPlan(PlanDesc desc);

  [[nodiscard]] const PlanDesc& desc() const noexcept { return desc_; }

  /// Densely packed batched transform: `in` holds batch signals of
  /// nonzero_or_n() elements each; `out` receives batch x keep_or_n().
  /// In-place operation (in.data() == out.data()) is supported only when the
  /// output signal is not longer than the input signal.
  void execute(std::span<const c32> in, std::span<c32> out, std::size_t batch) const;

  /// Fully general strided execution (used for along-X transforms in 2D and
  /// the hidden-dimension-aligned FFT variant of the fused kernel).
  void execute_strided(const c32* in, c32* out, std::size_t batch, const ExecLayout& layout) const;

  /// Single-signal transform through a caller-provided scratch buffer;
  /// exposed so fused pipelines can keep data tile-resident.  Reads the
  /// `nonzero` stored elements of `in` (stride in_elem_stride), runs the
  /// passes in `work` (size >= scratch_elems()), writes keep bins to `out`
  /// (stride out_elem_stride).  With unit strides the first pass reads `in`
  /// and the last pass writes `out` directly.  `in` and `out` may be the
  /// same signal when keep <= nonzero; neither may overlap `work`.
  void execute_one(const c32* in, std::ptrdiff_t in_elem_stride, c32* out,
                   std::ptrdiff_t out_elem_stride, std::span<c32> work) const;

  /// Scratch elements execute_one needs (the two n-point Stockham
  /// ping-pong buffers); callers sizing arena requests use this instead of
  /// hard-coding 2 * n.
  [[nodiscard]] std::size_t scratch_elems() const noexcept { return 2 * desc_.n; }

  /// Unit butterfly ops per signal under the paper's Figure-5 counting
  /// convention (count_pruned_ops: a pruned radix-2 DIF network).  This is
  /// the analytic model the figure benches print, not the work this plan
  /// executes; see flops_per_signal for that.
  [[nodiscard]] std::uint64_t unit_ops_per_signal() const noexcept { return unit_ops_; }
  /// Real FLOPs per signal the pruned Stockham passes execute
  /// (count_stockham_ops: 2 per complex add, 6 per twiddle multiply).
  [[nodiscard]] std::uint64_t flops_per_signal() const noexcept { return flops_; }
  /// Bytes read / written from the caller's buffers per signal.
  [[nodiscard]] std::uint64_t bytes_read_per_signal() const noexcept;
  [[nodiscard]] std::uint64_t bytes_written_per_signal() const noexcept;

  /// True when truncation or zero padding is active (keep < n or
  /// nonzero < n), i.e. some pass of the schedule skips work.
  [[nodiscard]] bool pruned() const noexcept { return pruned_; }

 private:
  PlanDesc desc_;
  const TwiddleTable* tw_ = nullptr;
  bool pruned_ = false;
  std::uint64_t unit_ops_ = 0;
  std::uint64_t flops_ = 0;
};

}  // namespace turbofno::fft
