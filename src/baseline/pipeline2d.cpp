#include "baseline/pipeline2d.hpp"

#include <algorithm>

#include "baseline/memcopy_stages.hpp"
#include "fft/plan_cache.hpp"
#include "fft/real2d.hpp"
#include "gemm/batched.hpp"
#include "runtime/timer.hpp"

namespace turbofno::baseline {

namespace {

fft::Plan2dDesc full2d(std::size_t nx, std::size_t ny, fft::Direction dir) {
  fft::Plan2dDesc d;
  d.nx = nx;
  d.ny = ny;
  d.dir = dir;
  return d;
}

}  // namespace

BaselinePipeline2d::BaselinePipeline2d(Spectral2dProblem prob)
    : prob_(prob),
      fwd_full_(full2d(prob.nx, prob.ny, fft::Direction::Forward)),
      inv_full_(full2d(prob.nx, prob.ny, fft::Direction::Inverse)) {
  prob_.validate();
  const std::size_t field = prob_.nx * prob_.ny;
  const std::size_t modes = prob_.modes_x * prob_.modes_y;
  freq_full_.resize(prob_.batch * prob_.hidden * field);
  freq_trunc_.resize(prob_.batch * prob_.hidden * modes);
  mixed_.resize(prob_.batch * prob_.out_dim * modes);
  mixed_full_.resize(prob_.batch * prob_.out_dim * field);
}

void BaselinePipeline2d::run(std::span<const c32> u, std::span<const c32> w, std::span<c32> v) {
  run_batched(u, w, v, prob_.batch);
}

void BaselinePipeline2d::reserve(std::size_t batch) {
  if (batch <= prob_.batch) return;
  // Grow before bumping the capacity mark (exception safety).
  const std::size_t field = prob_.nx * prob_.ny;
  const std::size_t modes = prob_.modes_x * prob_.modes_y;
  freq_full_.resize(batch * prob_.hidden * field);
  freq_trunc_.resize(batch * prob_.hidden * modes);
  mixed_.resize(batch * prob_.out_dim * modes);
  mixed_full_.resize(batch * prob_.out_dim * field);
  prob_.batch = batch;
}

void BaselinePipeline2d::run_batched(std::span<const c32> u, std::span<const c32> w,
                                     std::span<c32> v, std::size_t batch) {
  run_lane<fused::ComplexLane>(u, w, v, batch);
}

void BaselinePipeline2d::run_batched_real(std::span<const float> u, std::span<const c32> w,
                                          std::span<float> v, std::size_t batch) {
  run_lane<fused::RealLane>(u, w, v, batch);
}

template <class Lane>
void BaselinePipeline2d::run_lane(std::span<const typename Lane::Sample> u,
                                  std::span<const c32> w, std::span<typename Lane::Sample> v,
                                  std::size_t batch) {
  const std::size_t field = prob_.nx * prob_.ny;
  check_batch_spans(u.size(), v.size(), prob_.hidden * field, prob_.out_dim * field, batch,
                    Lane::pick("BaselinePipeline2d", "BaselinePipeline2d(real)"));
  reserve(batch);
  counters_.clear();
  if (batch == 0) return;
  const std::size_t B = batch;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t NY = prob_.ny;
  const std::size_t MY = prob_.modes_y;
  const std::size_t FX = Lane::kept(prob_.nx);       // full X spectrum: nx or nx/2+1 rows
  const std::size_t MX = Lane::kept(prob_.modes_x);  // x-rows the lane keeps
  const std::size_t modes = MX * MY;

  fft_stage(u, B);

  // Stage 2: truncate memcopy of the low-frequency corner.
  {
    runtime::Timer t;
    truncate_copy_2d(freq_full_.span().first(B * K * FX * NY),
                     freq_trunc_.span().first(B * K * modes), B * K, FX, NY, MX, MY,
                     &counters_.stage("truncate-copy"));
    counters_.stage("truncate-copy").seconds = t.seconds();
  }

  // Stage 3: batched CGEMM along the hidden dimension.
  {
    runtime::Timer t;
    gemm::BatchedStrides strides;
    strides.a = 0;
    strides.b = static_cast<std::ptrdiff_t>(K * modes);
    strides.c = static_cast<std::ptrdiff_t>(O * modes);
    gemm::cgemm_batched(O, modes, K, c32{1.0f, 0.0f}, w.data(), K, freq_trunc_.data(), modes,
                        c32{0.0f, 0.0f}, mixed_.data(), modes, B, strides);
    auto& sc = counters_.stage("cgemm");
    sc.seconds = t.seconds();
    sc.bytes_read = (B * K * modes + O * K) * sizeof(c32);
    sc.bytes_written = B * O * modes * sizeof(c32);
    sc.flops = trace::cgemm_flops(B * modes, O, K);
    sc.kernel_launches = 1;
  }

  // Stage 4: zero-pad memcopy back to the full spectrum.
  {
    runtime::Timer t;
    pad_copy_2d(mixed_.span().first(B * O * modes), mixed_full_.span().first(B * O * FX * NY),
                B * O, MX, MY, FX, NY, &counters_.stage("pad-copy"));
    counters_.stage("pad-copy").seconds = t.seconds();
  }

  ifft_stage(v, B);
}

void BaselinePipeline2d::fft_stage(std::span<const c32> u, std::size_t batch) {
  // Full 2D FFT.  cuFFT's 2D C2C makes two passes over global memory (one
  // per axis); the byte accounting reflects both.
  const std::size_t BK = batch * prob_.hidden;
  const std::size_t field = prob_.nx * prob_.ny;
  runtime::Timer t;
  fwd_full_.execute(u, freq_full_.span(), BK);
  auto& sc = counters_.stage("fft2d");
  sc.seconds = t.seconds();
  sc.bytes_read = 2 * BK * field * sizeof(c32);
  sc.bytes_written = 2 * BK * field * sizeof(c32);
  sc.flops = BK * fwd_full_.flops_per_field();
  sc.kernel_launches = 1;
}

void BaselinePipeline2d::fft_stage(std::span<const float> u, std::size_t batch) {
  // R2C along X, then full C2C along Y.  Both passes go through global
  // memory, mirroring cuFFT's 2D R2C.
  const std::size_t BK = batch * prob_.hidden;
  const std::size_t NX = prob_.nx;
  const std::size_t NY = prob_.ny;
  const std::size_t KEEPX = NX / 2 + 1;
  if (!fwd_y_full_) {
    inv_y_full_ = fft::acquire_plan({NY, fft::Direction::Inverse});
    fwd_y_full_ = fft::acquire_plan({NY, fft::Direction::Forward});
  }
  const std::size_t half = std::max(prob_.hidden, prob_.out_dim) * KEEPX * NY;
  if (xhalf_.size() < batch * half) xhalf_.resize(batch * half);
  runtime::Timer t;
  fft::rfft2d_x_stage(NX, KEEPX, u.data(), xhalf_.data(), BK, NY);
  fwd_y_full_->execute(xhalf_.span().first(BK * KEEPX * NY),
                       freq_full_.span().first(BK * KEEPX * NY), BK * KEEPX);
  auto& sc = counters_.stage("fft2d");
  sc.seconds = t.seconds();
  sc.bytes_read = BK * NX * NY * sizeof(float) + BK * KEEPX * NY * sizeof(c32);
  sc.bytes_written = 2 * BK * KEEPX * NY * sizeof(c32);
  const auto fx = fft::acquire_plan({NX, fft::Direction::Forward});
  sc.flops = BK * (NY / 2) * fx->flops_per_signal() + BK * NY * 8 * KEEPX +
             BK * KEEPX * fwd_y_full_->flops_per_signal();
  sc.kernel_launches = 2;
}

void BaselinePipeline2d::ifft_stage(std::span<c32> v, std::size_t batch) {
  // Full 2D inverse FFT (again two global passes).
  const std::size_t BO = batch * prob_.out_dim;
  const std::size_t field = prob_.nx * prob_.ny;
  runtime::Timer t;
  inv_full_.execute(mixed_full_.span(), v, BO);
  auto& sc = counters_.stage("ifft2d");
  sc.seconds = t.seconds();
  sc.bytes_read = 2 * BO * field * sizeof(c32);
  sc.bytes_written = 2 * BO * field * sizeof(c32);
  sc.flops = BO * inv_full_.flops_per_field();
  sc.kernel_launches = 1;
}

void BaselinePipeline2d::ifft_stage(std::span<float> v, std::size_t batch) {
  // C2C along Y, then C2R along X.
  const std::size_t BO = batch * prob_.out_dim;
  const std::size_t NX = prob_.nx;
  const std::size_t NY = prob_.ny;
  const std::size_t KEEPX = NX / 2 + 1;
  runtime::Timer t;
  inv_y_full_->execute(mixed_full_.span().first(BO * KEEPX * NY),
                       xhalf_.span().first(BO * KEEPX * NY), BO * KEEPX);
  fft::irfft2d_x_stage(NX, KEEPX, xhalf_.data(), v.data(), BO, NY);
  auto& sc = counters_.stage("ifft2d");
  sc.seconds = t.seconds();
  sc.bytes_read = 2 * BO * KEEPX * NY * sizeof(c32);
  sc.bytes_written = BO * KEEPX * NY * sizeof(c32) + BO * NX * NY * sizeof(float);
  const auto ix = fft::acquire_plan({NX, fft::Direction::Inverse});
  sc.flops = BO * KEEPX * inv_y_full_->flops_per_signal() +
             BO * (NY / 2) * ix->flops_per_signal() + BO * NY * 8 * KEEPX;
  sc.kernel_launches = 2;
}

}  // namespace turbofno::baseline
