#include "baseline/pipeline1d.hpp"

#include <tuple>

#include "baseline/memcopy_stages.hpp"
#include "gemm/batched.hpp"
#include "runtime/timer.hpp"

namespace turbofno::baseline {

BaselinePipeline1d::BaselinePipeline1d(Spectral1dProblem prob)
    : prob_(prob),
      complex_plans_(fused::ComplexLane::plans(prob.n, fused::ComplexLane::kept(prob.n))) {
  prob_.validate();
  freq_full_.resize(prob_.batch * prob_.hidden * prob_.n);
  freq_trunc_.resize(prob_.batch * prob_.hidden * prob_.modes);
  mixed_.resize(prob_.batch * prob_.out_dim * prob_.modes);
  mixed_full_.resize(prob_.batch * prob_.out_dim * prob_.n);
}

void BaselinePipeline1d::run(std::span<const c32> u, std::span<const c32> w, std::span<c32> v) {
  run_batched(u, w, v, prob_.batch);
}

void BaselinePipeline1d::reserve(std::size_t batch) {
  if (batch <= prob_.batch) return;
  // Grow before bumping the capacity mark (exception safety).
  freq_full_.resize(batch * prob_.hidden * prob_.n);
  freq_trunc_.resize(batch * prob_.hidden * prob_.modes);
  mixed_.resize(batch * prob_.out_dim * prob_.modes);
  mixed_full_.resize(batch * prob_.out_dim * prob_.n);
  prob_.batch = batch;
}

void BaselinePipeline1d::run_batched(std::span<const c32> u, std::span<const c32> w,
                                     std::span<c32> v, std::size_t batch) {
  run_lane<fused::ComplexLane>(u, w, v, batch);
}

void BaselinePipeline1d::run_batched_real(std::span<const float> u, std::span<const c32> w,
                                          std::span<float> v, std::size_t batch) {
  run_lane<fused::RealLane>(u, w, v, batch);
}

template <class Lane>
void BaselinePipeline1d::run_lane(std::span<const typename Lane::Sample> u,
                                  std::span<const c32> w, std::span<typename Lane::Sample> v,
                                  std::size_t batch) {
  using S = typename Lane::Sample;
  check_batch_spans(u.size(), v.size(), prob_.hidden * prob_.n, prob_.out_dim * prob_.n, batch,
                    Lane::pick("BaselinePipeline1d", "BaselinePipeline1d(real)"));
  auto& pl = Lane::pick(complex_plans_, real_plans_);
  if (!pl.fwd) pl = Lane::plans(prob_.n, Lane::kept(prob_.n));  // every bin stored
  reserve(batch);
  counters_.clear();
  if (batch == 0) return;
  const auto [B, K, O, N] = std::tuple{batch, prob_.hidden, prob_.out_dim, prob_.n};
  const std::size_t F = Lane::kept(N);            // full spectrum per signal: n or n/2+1
  const std::size_t M = Lane::kept(prob_.modes);  // bins the lane keeps

  // Stage 1: full forward FFT of every (batch, channel) signal (no built-in
  // filtering, all bins stored).
  {
    runtime::Timer t;
    pl.fwd->execute(u.first(B * K * N), freq_full_.span().first(B * K * F), B * K);
    auto& sc = counters_.stage("fft");
    sc.seconds = t.seconds();
    sc.bytes_read = B * K * N * sizeof(S);
    sc.bytes_written = B * K * F * sizeof(c32);
    sc.flops = B * K * pl.fwd->flops_per_signal();
    sc.kernel_launches = 1;
  }

  // Stage 2: truncate memcopy (cuFFT has no built-in filtering).
  {
    runtime::Timer t;
    truncate_copy(freq_full_.span().first(B * K * F), freq_trunc_.span().first(B * K * M), B * K,
                  F, M, &counters_.stage("truncate-copy"));
    counters_.stage("truncate-copy").seconds = t.seconds();
  }

  // Stage 3: batched CGEMM along the hidden dimension:
  // mixed[b] [O x M] = W [O x K] * freq_trunc[b] [K x M].
  {
    runtime::Timer t;
    gemm::BatchedStrides strides;
    strides.a = 0;  // the weight matrix is shared across the batch
    strides.b = static_cast<std::ptrdiff_t>(K * M);
    strides.c = static_cast<std::ptrdiff_t>(O * M);
    gemm::cgemm_batched(O, M, K, c32{1.0f, 0.0f}, w.data(), K, freq_trunc_.data(), M,
                        c32{0.0f, 0.0f}, mixed_.data(), M, B, strides);
    auto& sc = counters_.stage("cgemm");
    sc.seconds = t.seconds();
    sc.bytes_read = (B * K * M + O * K) * sizeof(c32);
    sc.bytes_written = B * O * M * sizeof(c32);
    sc.flops = trace::cgemm_flops(B * M, O, K);
    sc.kernel_launches = 1;  // one strided-batched cuBLAS call
  }

  // Stage 4: zero-pad memcopy back to the full spectrum.
  {
    runtime::Timer t;
    pad_copy(mixed_.span().first(B * O * M), mixed_full_.span().first(B * O * F), B * O, M, F,
             &counters_.stage("pad-copy"));
    counters_.stage("pad-copy").seconds = t.seconds();
  }

  // Stage 5: full inverse FFT (the real lane's C2R adds the Hermitian
  // extension).
  {
    runtime::Timer t;
    pl.inv->execute(mixed_full_.span().first(B * O * F), v.first(B * O * N), B * O);
    auto& sc = counters_.stage("ifft");
    sc.seconds = t.seconds();
    sc.bytes_read = B * O * F * sizeof(c32);
    sc.bytes_written = B * O * N * sizeof(S);
    sc.flops = B * O * pl.inv->flops_per_signal();
    sc.kernel_launches = 1;
  }
}

}  // namespace turbofno::baseline
