// The PyTorch-like 1D spectral-convolution pipeline (comparison base).
//
// Mirrors Figure 1(b): five separate kernels with full-size intermediates —
// full FFT, truncate copy, batched CGEMM, pad copy, full iFFT.  No pruning,
// no built-in filtering: exactly what cuFFT + cuBLAS + memory kernels do.
#pragma once

#include <span>

#include "baseline/problem.hpp"
#include "fused/lane.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/complex.hpp"
#include "trace/counters.hpp"

namespace turbofno::baseline {

class BaselinePipeline1d {
 public:
  explicit BaselinePipeline1d(Spectral1dProblem prob);

  /// u [batch, hidden, n] -> v [batch, out_dim, n]; w [out_dim, hidden].
  /// Refreshes counters() on every call.
  void run(std::span<const c32> u, std::span<const c32> w, std::span<c32> v);
  /// Serving entry point: runs the first `batch` signals; capacities beyond
  /// problem().batch grow the intermediates in place (see reserve).
  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch);
  /// Real-spectral lane: the same five unfused kernels on real samples —
  /// full RFFT (all n/2+1 bins), truncate to modes/2+1, CGEMM, zero-pad
  /// back to n/2+1, full C2R inverse.  Requires n >= 4.
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch);
  /// Grows the full-size intermediates so micro-batches up to `batch` run
  /// without a reallocation; problem().batch becomes the high-water capacity.
  void reserve(std::size_t batch);

  [[nodiscard]] const trace::PipelineCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const Spectral1dProblem& problem() const noexcept { return prob_; }

 private:
  /// The five stages of run_batched (fused::ComplexLane) and
  /// run_batched_real (fused::RealLane).
  template <class Lane>
  void run_lane(std::span<const typename Lane::Sample> u, std::span<const c32> w,
                std::span<typename Lane::Sample> v, std::size_t batch);

  Spectral1dProblem prob_;
  // Full-spectrum (unpruned) transforms: C2C at construction, R2C/C2R on
  // the first real run (they require n >= 4).
  fused::ComplexLane::Plans complex_plans_;
  fused::RealLane::Plans real_plans_;
  // Full-size intermediates: the global-memory round trips fusion removes.
  // The real lane uses a prefix of each (n/2+1 spectrum bins, modes/2+1 kept).
  AlignedBuffer<c32> freq_full_;   // [batch, hidden, n]
  AlignedBuffer<c32> freq_trunc_;  // [batch, hidden, modes]
  AlignedBuffer<c32> mixed_;       // [batch, out_dim, modes]
  AlignedBuffer<c32> mixed_full_;  // [batch, out_dim, n]
  trace::PipelineCounters counters_{"pytorch-1d"};
};

}  // namespace turbofno::baseline
