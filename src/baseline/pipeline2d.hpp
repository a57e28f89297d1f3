// The PyTorch-like 2D spectral-convolution pipeline (comparison base).
//
// Full 2D FFT (both passes over global memory, as cuFFT performs), truncate
// copy of the low-frequency corner, batched CGEMM, pad copy, full 2D iFFT.
#pragma once

#include <memory>
#include <span>

#include "baseline/problem.hpp"
#include "fft/fft2d.hpp"
#include "fft/plan.hpp"
#include "fused/lane.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/complex.hpp"
#include "trace/counters.hpp"

namespace turbofno::baseline {

class BaselinePipeline2d {
 public:
  explicit BaselinePipeline2d(Spectral2dProblem prob);

  /// u [batch, hidden, nx, ny] -> v [batch, out_dim, nx, ny];
  /// w [out_dim, hidden].  Refreshes counters() per call.
  void run(std::span<const c32> u, std::span<const c32> w, std::span<c32> v);
  /// Serving entry point: runs the first `batch` fields; capacities beyond
  /// problem().batch grow the intermediates in place (see reserve).
  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch);
  /// Real-spectral lane: the same five unfused kernels on real samples —
  /// full R2C along X (nx/2+1 rows kept), full C2C along Y, truncate the
  /// [modes_x/2+1, modes_y] corner, CGEMM, zero-pad, full C2C-Y + C2R-X
  /// inverse.  Requires nx >= 4 and ny a power of two.
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch);
  /// Grows the full-size intermediates so micro-batches up to `batch` run
  /// without a reallocation; problem().batch becomes the high-water capacity.
  void reserve(std::size_t batch);

  [[nodiscard]] const trace::PipelineCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const Spectral2dProblem& problem() const noexcept { return prob_; }

 private:
  /// The five stages of run_batched (fused::ComplexLane) and
  /// run_batched_real (fused::RealLane).  Stages 2-4 are shared; the
  /// transform stages 1 and 5 are the lane's own fft_stage / ifft_stage.
  template <class Lane>
  void run_lane(std::span<const typename Lane::Sample> u, std::span<const c32> w,
                std::span<typename Lane::Sample> v, std::size_t batch);
  /// Stage 1: u -> freq_full_ ([batch, hidden, nx or nx/2+1, ny]).
  void fft_stage(std::span<const c32> u, std::size_t batch);
  void fft_stage(std::span<const float> u, std::size_t batch);
  /// Stage 5: mixed_full_ ([batch, out_dim, nx or nx/2+1, ny]) -> v.
  void ifft_stage(std::span<c32> v, std::size_t batch);
  void ifft_stage(std::span<float> v, std::size_t batch);

  Spectral2dProblem prob_;
  fft::FftPlan2d fwd_full_;
  fft::FftPlan2d inv_full_;
  std::shared_ptr<const fft::FftPlan> fwd_y_full_;  // lazy: real lane only
  std::shared_ptr<const fft::FftPlan> inv_y_full_;  // lazy: real lane only
  // Real lane: the X-stage half-spectrum between the R2C/C2R X pass and the
  // C2C Y pass, [batch, max(K,O), nx/2+1, ny] (lazy).
  AlignedBuffer<c32> xhalf_;
  // Full-size intermediates; the real lane uses a prefix of each.
  AlignedBuffer<c32> freq_full_;   // [batch, hidden, nx, ny]
  AlignedBuffer<c32> freq_trunc_;  // [batch, hidden, mx, my]
  AlignedBuffer<c32> mixed_;       // [batch, out_dim, mx, my]
  AlignedBuffer<c32> mixed_full_;  // [batch, out_dim, nx, ny]
  trace::PipelineCounters counters_{"pytorch-2d"};
};

}  // namespace turbofno::baseline
