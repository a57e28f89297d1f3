// The four TurboFNO 1D pipeline variants (ladder stages A-D).
//
// Shared structure: a "thread block" task owns one batch signal group and
// iterates the hidden dimension in k_tb-channel tiles, exactly like the
// GEMM k-loop (Figure 6(c)-(e)).  What differs between variants is which
// stage boundaries still round-trip through (simulated) global memory.
//
// Each variant serves both spectral lanes (fused/lane.hpp) from one stage
// body, `run_lane<Lane>`, with its stage counters: run_batched runs it on
// the complex lane, run_batched_real on the real lane (real samples in and
// out, modes/2+1 retained RFFT bins, the C2R Hermitian-projecting inverse).
// The real lane's spectra are a capacity subset of the complex lane's, so
// both lanes share every workspace.
#pragma once

#include <span>

#include "baseline/problem.hpp"
#include "fused/lane.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/complex.hpp"
#include "trace/counters.hpp"

namespace turbofno::fused {

/// What every 1D variant shares: the problem, both lanes' plans, the stage
/// counters.
class Pipeline1dBase {
 public:
  Pipeline1dBase(baseline::Spectral1dProblem prob, const char* counters_name);
  [[nodiscard]] const trace::PipelineCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const baseline::Spectral1dProblem& problem() const noexcept { return prob_; }

 protected:
  /// `Lane`'s plans.  The complex lane's are acquired at construction, the
  /// real lane's on first use (the RFFT requires n >= 4, which a
  /// complex-only pipeline must not be forced to satisfy).
  template <class Lane>
  const typename Lane::Plans& plans();

  /// Throws when the caller's buffers cannot hold `batch` signals.
  template <class Lane>
  void check_spans(std::span<const typename Lane::Sample> u,
                   std::span<typename Lane::Sample> v, std::size_t batch) const;

  baseline::Spectral1dProblem prob_;
  ComplexLane::Plans complex_plans_;
  RealLane::Plans real_plans_;
  trace::PipelineCounters counters_;
};

// Every variant below: run_batched / run_batched_real run the first `batch`
// signals on the complex / real lane (see SpectralPipeline1d); reserve grows
// the workspaces so micro-batches up to `batch` run without a reallocation,
// and problem().batch becomes the high-water capacity.

/// Stage A: built-in truncation/zero-padding/pruning, kernels unfused.
/// Three launches: truncated FFT -> batched CGEMM -> zero-padded iFFT; the
/// separate memcopy passes of the baseline disappear.
class FftOptPipeline1d : public Pipeline1dBase {
 public:
  explicit FftOptPipeline1d(baseline::Spectral1dProblem prob);
  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch);
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch);
  void reserve(std::size_t batch);

 private:
  template <class Lane>
  void run_lane(std::span<const typename Lane::Sample> u, std::span<const c32> w,
                std::span<typename Lane::Sample> v, std::size_t batch);

  AlignedBuffer<c32> freq_;   // [batch, hidden, modes]
  AlignedBuffer<c32> mixed_;  // [batch, out_dim, modes]
};

/// Stage B: forward FFT fused with the CGEMM k-loop; iFFT separate.
class FusedFftGemmPipeline1d : public Pipeline1dBase {
 public:
  explicit FusedFftGemmPipeline1d(baseline::Spectral1dProblem prob);
  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch);
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch);
  void reserve(std::size_t batch);

 private:
  template <class Lane>
  void run_lane(std::span<const typename Lane::Sample> u, std::span<const c32> w,
                std::span<typename Lane::Sample> v, std::size_t batch);

  AlignedBuffer<c32> mixed_;  // [batch, out_dim, modes]
};

/// Stage C: forward FFT separate; iFFT fused as the CGEMM epilogue.
class FusedGemmIfftPipeline1d : public Pipeline1dBase {
 public:
  explicit FusedGemmIfftPipeline1d(baseline::Spectral1dProblem prob);
  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch);
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch);
  void reserve(std::size_t batch);

 private:
  template <class Lane>
  void run_lane(std::span<const typename Lane::Sample> u, std::span<const c32> w,
                std::span<typename Lane::Sample> v, std::size_t batch);

  AlignedBuffer<c32> freq_;  // [batch, hidden, modes]
};

/// Stage D: the fully fused FFT-CGEMM-iFFT pass.  One launch; the only
/// global traffic is the input read, the weight read, and the output write.
class FullyFusedPipeline1d : public Pipeline1dBase {
 public:
  explicit FullyFusedPipeline1d(baseline::Spectral1dProblem prob);
  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch);
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch);
  void reserve(std::size_t batch);

 private:
  template <class Lane>
  void run_lane(std::span<const typename Lane::Sample> u, std::span<const c32> w,
                std::span<typename Lane::Sample> v, std::size_t batch);
};

}  // namespace turbofno::fused
