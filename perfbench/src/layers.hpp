// Per-layer probes of the traced mode: each times calls into one module's
// public functions from outside (fft, gemm, fused, runtime) at a workload's
// own shapes, checks the results against the library's references, and
// reports time, computed bytes and FLOPs, and the share of a roofline
// measured on the host it runs on.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// The spectral-layer shape a workload runs: batch x hidden channels mixed
/// by one hidden x hidden spectral weight.  2D shapes run the real lane
/// (run_batched_real, RFFT half spectrum), 1D shapes the complex lane.
struct LayerShape {
  bool is_2d = false;
  std::size_t batch = 1;
  std::size_t hidden = 1;
  std::size_t n = 0;      // 1D length, or 2D nx
  std::size_t ny = 0;     // 2D only
  std::size_t modes = 0;  // 1D modes, or 2D modes_x
  std::size_t modes_y = 0;
  unsigned seed = 1;
  bool fault = false;  // self-test: corrupt one fft/gemm output before its check
};

struct Roofline {
  double copy_gbs = 0.0;
  double cgemm_gflops = 0.0;
  /// Attainable GFLOP/s at an arithmetic intensity of `flops_per_byte`.
  [[nodiscard]] double attainable_gflops(double flops_per_byte) const;
};

/// Times fn() until `budget_s` has passed (at least min_reps, at most
/// max_reps calls), one span per call, and returns the per-call seconds.
std::vector<double> sample_calls(Tracer& tr, const char* span, double budget_s,
                                 std::size_t min_reps, std::size_t max_reps,
                                 const std::function<void()>& fn);

/// roofline.copy_gbs (STREAM-style copy) and roofline.cgemm_gflops.
Roofline probe_roofline(Report& rep, Tracer& tr);

/// runtime.parallel_for.us: an empty-body parallel_for over `items`.
void probe_parallel_for(std::size_t items, Report& rep, Tracer& tr);

/// fft.*, gemm.* and fused.* rows at `s`.  Returns the milliseconds of one
/// spectral layer through the row Backend::Auto resolves to.
double probe_kernel_layers(const LayerShape& s, const Roofline& roof, Report& rep, Tracer& tr);

}  // namespace perfbench
