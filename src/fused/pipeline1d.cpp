#include "fused/pipeline1d.hpp"

#include <algorithm>

#include "fused/fft_variant.hpp"
#include "gemm/batched.hpp"
#include "gemm/config.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"
#include "runtime/timer.hpp"
#include "tensor/simd.hpp"

namespace turbofno::fused {

namespace {

constexpr std::size_t kTb = gemm::FusedTiles::Ktb;  // paper Table 1: k_tb = 8

}  // namespace

Pipeline1dBase::Pipeline1dBase(baseline::Spectral1dProblem prob, const char* counters_name)
    : prob_(prob),
      complex_plans_(ComplexLane::plans(prob.n, prob.modes)),
      counters_(counters_name) {
  prob_.validate();
}

template <class Lane>
const typename Lane::Plans& Pipeline1dBase::plans() {
  auto& p = Lane::pick(complex_plans_, real_plans_);
  if (!p.fwd) p = Lane::plans(prob_.n, Lane::kept(prob_.modes));
  return p;
}

template <class Lane>
void Pipeline1dBase::check_spans(std::span<const typename Lane::Sample> u,
                                 std::span<typename Lane::Sample> v, std::size_t batch) const {
  baseline::check_batch_spans(u.size(), v.size(), prob_.hidden * prob_.n, prob_.out_dim * prob_.n,
                              batch, Lane::kWho1d);
}

// ---------------------------------------------------------------- FftOpt (A)

FftOptPipeline1d::FftOptPipeline1d(baseline::Spectral1dProblem prob)
    : Pipeline1dBase(prob, "fftopt-1d") {
  freq_.resize(prob_.batch * prob_.hidden * prob_.modes);
  mixed_.resize(prob_.batch * prob_.out_dim * prob_.modes);
}

void FftOptPipeline1d::reserve(std::size_t batch) {
  if (batch <= prob_.batch) return;
  // Grow before bumping the capacity mark: a bad_alloc mid-reserve must
  // not leave problem().batch claiming never-grown workspaces.
  freq_.resize(batch * prob_.hidden * prob_.modes);
  mixed_.resize(batch * prob_.out_dim * prob_.modes);
  prob_.batch = batch;
}

void FftOptPipeline1d::run_batched(std::span<const c32> u, std::span<const c32> w,
                                   std::span<c32> v, std::size_t batch) {
  run_lane<ComplexLane>(u, w, v, batch);
}

void FftOptPipeline1d::run_batched_real(std::span<const float> u, std::span<const c32> w,
                                        std::span<float> v, std::size_t batch) {
  run_lane<RealLane>(u, w, v, batch);
}

template <class Lane>
void FftOptPipeline1d::run_lane(std::span<const typename Lane::Sample> u,
                                std::span<const c32> w, std::span<typename Lane::Sample> v,
                                std::size_t batch) {
  check_spans<Lane>(u, v, batch);
  const auto& pl = plans<Lane>();
  reserve(batch);
  counters_.clear();
  if (batch == 0) return;
  using S = typename Lane::Sample;
  const std::size_t B = batch;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t N = prob_.n;
  const std::size_t M = Lane::kept(prob_.modes);

  {
    runtime::Timer t;
    pl.fwd->execute(u.first(B * K * N), freq_.span().first(B * K * M), B * K);
    auto& sc = counters_.stage("fft-trunc");
    sc.seconds = t.seconds();
    sc.bytes_read = B * K * N * sizeof(S);
    sc.bytes_written = B * K * M * sizeof(c32);  // only the kept bins
    sc.flops = B * K * pl.fwd->flops_per_signal();
    sc.kernel_launches = 1;
  }

  {
    runtime::Timer t;
    gemm::BatchedStrides strides;
    strides.a = 0;
    strides.b = static_cast<std::ptrdiff_t>(K * M);
    strides.c = static_cast<std::ptrdiff_t>(O * M);
    gemm::cgemm_batched(O, M, K, c32{1.0f, 0.0f}, w.data(), K, freq_.data(), M,
                        c32{0.0f, 0.0f}, mixed_.data(), M, B, strides);
    auto& sc = counters_.stage("cgemm");
    sc.seconds = t.seconds();
    sc.bytes_read = (B * K * M + O * K) * sizeof(c32);
    sc.bytes_written = B * O * M * sizeof(c32);
    sc.flops = trace::cgemm_flops(B * M, O, K);
    sc.kernel_launches = 1;
  }

  {
    runtime::Timer t;
    pl.inv->execute(mixed_.span().first(B * O * M), v.first(B * O * N), B * O);
    auto& sc = counters_.stage("ifft-pad");
    sc.seconds = t.seconds();
    sc.bytes_read = B * O * M * sizeof(c32);  // only the stored prefix
    sc.bytes_written = B * O * N * sizeof(S);
    sc.flops = B * O * pl.inv->flops_per_signal();
    sc.kernel_launches = 1;
  }
}

// --------------------------------------------------------- FusedFftGemm (B)

FusedFftGemmPipeline1d::FusedFftGemmPipeline1d(baseline::Spectral1dProblem prob)
    : Pipeline1dBase(prob, "fused-fft-gemm-1d") {
  mixed_.resize(prob_.batch * prob_.out_dim * prob_.modes);
}

void FusedFftGemmPipeline1d::reserve(std::size_t batch) {
  if (batch <= prob_.batch) return;
  mixed_.resize(batch * prob_.out_dim * prob_.modes);
  prob_.batch = batch;
}

void FusedFftGemmPipeline1d::run_batched(std::span<const c32> u, std::span<const c32> w,
                                         std::span<c32> v, std::size_t batch) {
  run_lane<ComplexLane>(u, w, v, batch);
}

void FusedFftGemmPipeline1d::run_batched_real(std::span<const float> u, std::span<const c32> w,
                                              std::span<float> v, std::size_t batch) {
  run_lane<RealLane>(u, w, v, batch);
}

template <class Lane>
void FusedFftGemmPipeline1d::run_lane(std::span<const typename Lane::Sample> u,
                                      std::span<const c32> w,
                                      std::span<typename Lane::Sample> v, std::size_t batch) {
  check_spans<Lane>(u, v, batch);
  const auto& pl = plans<Lane>();
  reserve(batch);
  counters_.clear();
  if (batch == 0) return;
  using S = typename Lane::Sample;
  const std::size_t B = batch;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t N = prob_.n;
  const std::size_t M = Lane::kept(prob_.modes);

  {
    runtime::Timer t;
    const std::size_t ld = simd::round_up_lanes(M);
    runtime::parallel_for(0, B, 1, [&](std::size_t lo, std::size_t hi) {
      auto& arena = runtime::tls_scratch();
      const auto scope = arena.scope();
      // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
      const std::span<c32> row = arena.alloc<c32>(ld);  // one channel's spectrum
      const std::span<float> tsplit = arena.alloc<float>(2 * kTb * ld);  // split tile planes
      const std::span<float> acc = arena.alloc<float>(2 * O * ld);  // split accumulator planes
      const std::span<c32> work = arena.alloc<c32>(pl.fwd->scratch_elems());
      std::fill(tsplit.begin(), tsplit.end(), 0.0f);  // lane padding must stay zero
      float* tre = tsplit.data();
      float* tim = tre + kTb * ld;
      float* are = acc.data();
      float* aim = are + O * ld;
      for (std::size_t b = lo; b < hi; ++b) {
        std::fill(acc.begin(), acc.end(), 0.0f);
        for (std::size_t k0 = 0; k0 < K; k0 += kTb) {
          const std::size_t kc = std::min(kTb, K - k0);
          // FFT each channel straight into the GEMM operand tile (the
          // shared-memory A block of the paper), split into SoA planes for
          // the SIMD MAC ...
          for (std::size_t kk = 0; kk < kc; ++kk) {
            pl.fwd->execute_one(u.data() + (b * K + k0 + kk) * N, 1, row.data(), 1, work);
            simd::split_planes(row.data(), tre + kk * ld, tim + kk * ld, M);
          }
          // ... and the MAC phase of the k-loop.
          rank_update_split(are, aim, w.data(), K, k0, tre, tim, ld, O, kc);
        }
        for (std::size_t o = 0; o < O; ++o) {
          simd::interleave_planes(are + o * ld, aim + o * ld, mixed_.data() + (b * O + o) * M, M);
        }
      }
      // tfno-hot-end
    });
    auto& sc = counters_.stage("fused-fft-cgemm");
    sc.seconds = t.seconds();
    sc.bytes_read = B * K * N * sizeof(S) + O * K * sizeof(c32);
    sc.bytes_written = B * O * M * sizeof(c32);
    sc.flops = B * K * pl.fwd->flops_per_signal() + trace::cgemm_flops(B * M, O, K);
    sc.kernel_launches = 1;
  }

  {
    runtime::Timer t;
    pl.inv->execute(mixed_.span().first(B * O * M), v.first(B * O * N), B * O);
    auto& sc = counters_.stage("ifft-pad");
    sc.seconds = t.seconds();
    sc.bytes_read = B * O * M * sizeof(c32);
    sc.bytes_written = B * O * N * sizeof(S);
    sc.flops = B * O * pl.inv->flops_per_signal();
    sc.kernel_launches = 1;
  }
}

// --------------------------------------------------------- FusedGemmIfft (C)

FusedGemmIfftPipeline1d::FusedGemmIfftPipeline1d(baseline::Spectral1dProblem prob)
    : Pipeline1dBase(prob, "fused-gemm-ifft-1d") {
  freq_.resize(prob_.batch * prob_.hidden * prob_.modes);
}

void FusedGemmIfftPipeline1d::reserve(std::size_t batch) {
  if (batch <= prob_.batch) return;
  freq_.resize(batch * prob_.hidden * prob_.modes);
  prob_.batch = batch;
}

void FusedGemmIfftPipeline1d::run_batched(std::span<const c32> u, std::span<const c32> w,
                                          std::span<c32> v, std::size_t batch) {
  run_lane<ComplexLane>(u, w, v, batch);
}

void FusedGemmIfftPipeline1d::run_batched_real(std::span<const float> u, std::span<const c32> w,
                                               std::span<float> v, std::size_t batch) {
  run_lane<RealLane>(u, w, v, batch);
}

template <class Lane>
void FusedGemmIfftPipeline1d::run_lane(std::span<const typename Lane::Sample> u,
                                       std::span<const c32> w,
                                       std::span<typename Lane::Sample> v, std::size_t batch) {
  check_spans<Lane>(u, v, batch);
  const auto& pl = plans<Lane>();
  reserve(batch);
  counters_.clear();
  if (batch == 0) return;
  using S = typename Lane::Sample;
  const std::size_t B = batch;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t N = prob_.n;
  const std::size_t M = Lane::kept(prob_.modes);

  {
    runtime::Timer t;
    pl.fwd->execute(u.first(B * K * N), freq_.span().first(B * K * M), B * K);
    auto& sc = counters_.stage("fft-trunc");
    sc.seconds = t.seconds();
    sc.bytes_read = B * K * N * sizeof(S);
    sc.bytes_written = B * K * M * sizeof(c32);
    sc.flops = B * K * pl.fwd->flops_per_signal();
    sc.kernel_launches = 1;
  }

  {
    runtime::Timer t;
    const std::size_t ld = simd::round_up_lanes(M);
    runtime::parallel_for(0, B, 1, [&](std::size_t lo, std::size_t hi) {
      auto& arena = runtime::tls_scratch();
      const auto scope = arena.scope();
      // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
      const std::span<float> tsplit = arena.alloc<float>(2 * kTb * ld);
      const std::span<float> acc = arena.alloc<float>(2 * O * ld);
      const std::span<c32> row = arena.alloc<c32>(ld);
      const std::span<c32> work = arena.alloc<c32>(pl.inv->scratch_elems());
      std::fill(tsplit.begin(), tsplit.end(), 0.0f);
      float* tre = tsplit.data();
      float* tim = tre + kTb * ld;
      float* are = acc.data();
      float* aim = are + O * ld;
      for (std::size_t b = lo; b < hi; ++b) {
        std::fill(acc.begin(), acc.end(), 0.0f);
        // The stored spectra already have the k-major tile layout; splitting
        // them into SoA planes is the only copy the GEMM pays.
        for (std::size_t k0 = 0; k0 < K; k0 += kTb) {
          const std::size_t kc = std::min(kTb, K - k0);
          for (std::size_t kk = 0; kk < kc; ++kk) {
            simd::split_planes(freq_.data() + (b * K + k0 + kk) * M, tre + kk * ld,
                               tim + kk * ld, M);
          }
          rank_update_split(are, aim, w.data(), K, k0, tre, tim, ld, O, kc);
        }
        // iFFT epilogue straight out of the accumulator tile (the paper's
        // Figure 6(f): iFFT on the result matrix along the output dim).
        for (std::size_t o = 0; o < O; ++o) {
          simd::interleave_planes(are + o * ld, aim + o * ld, row.data(), M);
          pl.inv->execute_one(row.data(), 1, v.data() + (b * O + o) * N, 1, work);
        }
      }
      // tfno-hot-end
    });
    auto& sc = counters_.stage("fused-cgemm-ifft");
    sc.seconds = t.seconds();
    sc.bytes_read = (B * K * M + O * K) * sizeof(c32);
    sc.bytes_written = B * O * N * sizeof(S);
    sc.flops = trace::cgemm_flops(B * M, O, K) + B * O * pl.inv->flops_per_signal();
    sc.kernel_launches = 1;
  }
}

// ------------------------------------------------------------ FullyFused (D)

FullyFusedPipeline1d::FullyFusedPipeline1d(baseline::Spectral1dProblem prob)
    : Pipeline1dBase(prob, "fully-fused-1d") {}

void FullyFusedPipeline1d::reserve(std::size_t batch) {
  // No batch-sized workspaces: per-task state lives in the thread arenas.
  if (batch > prob_.batch) prob_.batch = batch;
}

void FullyFusedPipeline1d::run_batched(std::span<const c32> u, std::span<const c32> w,
                                       std::span<c32> v, std::size_t batch) {
  run_lane<ComplexLane>(u, w, v, batch);
}

void FullyFusedPipeline1d::run_batched_real(std::span<const float> u, std::span<const c32> w,
                                            std::span<float> v, std::size_t batch) {
  run_lane<RealLane>(u, w, v, batch);
}

template <class Lane>
void FullyFusedPipeline1d::run_lane(std::span<const typename Lane::Sample> u,
                                    std::span<const c32> w, std::span<typename Lane::Sample> v,
                                    std::size_t batch) {
  check_spans<Lane>(u, v, batch);
  const auto& pl = plans<Lane>();
  reserve(batch);
  counters_.clear();
  if (batch == 0) return;
  using S = typename Lane::Sample;
  const std::size_t B = batch;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t N = prob_.n;
  const std::size_t M = Lane::kept(prob_.modes);

  runtime::Timer t;
  const std::size_t ld = simd::round_up_lanes(M);
  const std::size_t work_elems = std::max(pl.fwd->scratch_elems(), pl.inv->scratch_elems());
  runtime::parallel_for(0, B, 1, [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
    const std::span<float> tsplit = arena.alloc<float>(2 * kTb * ld);  // GEMM A tile planes
    const std::span<float> acc = arena.alloc<float>(2 * O * ld);  // C planes, cache-resident
    const std::span<c32> row = arena.alloc<c32>(ld);  // FFT out / iFFT in, one channel
    const std::span<c32> work = arena.alloc<c32>(work_elems);
    std::fill(tsplit.begin(), tsplit.end(), 0.0f);
    float* tre = tsplit.data();
    float* tim = tre + kTb * ld;
    float* are = acc.data();
    float* aim = are + O * ld;
    for (std::size_t b = lo; b < hi; ++b) {
      std::fill(acc.begin(), acc.end(), 0.0f);
      for (std::size_t k0 = 0; k0 < K; k0 += kTb) {
        const std::size_t kc = std::min(kTb, K - k0);
        for (std::size_t kk = 0; kk < kc; ++kk) {
          pl.fwd->execute_one(u.data() + (b * K + k0 + kk) * N, 1, row.data(), 1, work);
          simd::split_planes(row.data(), tre + kk * ld, tim + kk * ld, M);
        }
        rank_update_split(are, aim, w.data(), K, k0, tre, tim, ld, O, kc);
      }
      for (std::size_t o = 0; o < O; ++o) {
        simd::interleave_planes(are + o * ld, aim + o * ld, row.data(), M);
        pl.inv->execute_one(row.data(), 1, v.data() + (b * O + o) * N, 1, work);
      }
    }
    // tfno-hot-end
  });

  auto& sc = counters_.stage("fused-fft-cgemm-ifft");
  sc.seconds = t.seconds();
  sc.bytes_read = B * K * N * sizeof(S) + O * K * sizeof(c32);
  sc.bytes_written = B * O * N * sizeof(S);
  sc.flops = B * K * pl.fwd->flops_per_signal() + trace::cgemm_flops(B * M, O, K) +
             B * O * pl.inv->flops_per_signal();
  sc.kernel_launches = 1;
}

}  // namespace turbofno::fused
