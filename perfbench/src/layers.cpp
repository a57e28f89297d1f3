#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>

#include <unistd.h>

#include "baseline/problem.hpp"
#include "core/workload.hpp"
#include "fft/plan.hpp"
#include "fft/real.hpp"
#include "fft/reference.hpp"
#include "fused/ladder.hpp"
#include "gemm/cgemm.hpp"
#include "gemm/reference.hpp"
#include "gpusim/pipeline_model.hpp"
#include "runtime/parallel.hpp"
#include "tensor/aligned_buffer.hpp"
#include "trace/counters.hpp"

namespace perfbench {

using turbofno::c32;
namespace fft = turbofno::fft;
namespace fused = turbofno::fused;

namespace {

// Metric labels of the five ladder rows, in fused::kAllVariants order.
constexpr const char* kVariantLabel[] = {"pytorch", "fftopt", "fused_fft_gemm",
                                         "fused_gemm_ifft", "fully_fused"};

// Every stage name the pytorch and fully_fused rows record across the 1D,
// 2D, complex and real lanes; a stage a pipeline does not run reports 0 ms,
// so every traced run prints the same metric names.
constexpr const char* kPytorchStages[] = {"fft", "fft2d", "truncate-copy", "cgemm",
                                          "pad-copy", "ifft", "ifft2d"};
constexpr const char* kFullyFusedStages[] = {"fft-x-trunc", "fused-fft-cgemm-ifft",
                                             "ifft-x-pad"};

// Fault of the self-test: the fft/gemm probes honour it too.
bool g_fault_reference = false;

// A complex span as its interleaved float components.
std::span<const float> floats(std::span<const c32> v) {
  return {reinterpret_cast<const float*>(v.data()), 2 * v.size()};
}

// FFT outputs against fft::reference_dft/idft (double accumulation).
constexpr double kFftTol = 1e-4;
constexpr double kGemmTol = 1e-5;
// Ladder rows against the PyTorch row (different factorizations).
constexpr double kLadderTol = 1e-4;
// Signals per probe checked against the O(n^2) reference.
constexpr std::size_t kRefSignals = 4;

std::vector<c32> random_c32(std::size_t n, unsigned seed) {
  std::vector<c32> v(n);
  turbofno::core::fill_random(v, seed);
  return v;
}

std::vector<float> random_f32(std::size_t n, unsigned seed) {
  Rng r(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(2.0 * r.uniform() - 1.0);
  return v;
}

std::unique_ptr<fused::SpectralPipeline1d> make_row(fused::Variant v,
                                                   const turbofno::baseline::Spectral1dProblem& p,
                                                   bool real) {
  return fused::make_pipeline1d(v, p, real);
}

std::unique_ptr<fused::SpectralPipeline2d> make_row(fused::Variant v,
                                                   const turbofno::baseline::Spectral2dProblem& p,
                                                   bool real) {
  return fused::make_pipeline2d(v, p, real);
}

void fault_flip(std::span<c32> v) {
  if (g_fault_reference && !v.empty()) v[0].re = -v[0].re + 1.0f;
}

struct FftTiming {
  double seconds = 0.0;
  double bytes = 0.0;
  double flops = 0.0;
};

// Times plan.execute over `signals` signals and checks the first few
// against the reference transform.
FftTiming time_fft(const char* span, const fft::FftPlan& plan, std::size_t signals,
                   unsigned seed, Report& rep, Tracer& tr) {
  const auto& d = plan.desc();
  const std::size_t in_len = d.nonzero_or_n();
  const std::size_t out_len = d.keep_or_n();
  const auto in = random_c32(signals * in_len, seed);
  std::vector<c32> out(signals * out_len);
  const auto t = sample_calls(tr, span, 0.4, 5, 2000,
                              [&] { plan.execute(in, out, signals); });

  std::vector<c32> ref(out_len);
  double worst = 0.0;
  for (std::size_t s = 0; s < std::min(kRefSignals, signals); ++s) {
    const std::span<const c32> x(in.data() + s * in_len, in_len);
    if (d.dir == fft::Direction::Forward) {
      fft::reference_dft(x, ref, d.n);
    } else {
      fft::reference_idft(x, ref, d.n, d.scale_inverse);
    }
    std::span<c32> got(out.data() + s * out_len, out_len);
    fault_flip(got);
    worst = std::max(worst, rel_l2(floats(got), floats(ref)));
  }
  rep.check(worst <= kFftTol, std::string(span) + " vs fft::reference_dft: rel-L2 " +
                                  std::to_string(worst));
  FftTiming r;
  r.seconds = median(t);
  r.bytes = static_cast<double>(plan.bytes_read_per_signal() + plan.bytes_written_per_signal()) *
            static_cast<double>(signals);
  r.flops = static_cast<double>(plan.flops_per_signal()) * static_cast<double>(signals);
  return r;
}

// R2C at `keep` bins and C2R from `keep` stored bins, checked against the
// complex reference DFT of the same real signals.
void time_real_fft(std::size_t n, std::size_t keep, std::size_t signals, unsigned seed,
                   Report& rep, Tracer& tr) {
  fft::RfftPlan rf(n, keep);
  fft::IrfftPlan ir(n, keep);
  const auto x = random_f32(signals * n, seed);
  std::vector<c32> spec(signals * keep);
  std::vector<float> back(signals * n);
  const auto tf = sample_calls(tr, "fft.rfft_fwd", 0.3, 5, 2000,
                               [&] { rf.execute(x, spec, signals); });
  const auto ti = sample_calls(tr, "fft.irfft_inv", 0.3, 5, 2000,
                               [&] { ir.execute(spec, back, signals); });
  rep.metric("fft.rfft_fwd.ms", median(tf) * 1e3, "ms");
  rep.metric("fft.irfft_inv.ms", median(ti) * 1e3, "ms");

  double worst = 0.0;
  std::vector<c32> xc(n);
  std::vector<c32> ref(n);
  std::vector<c32> full(n);
  std::vector<float> ref_back(n);
  for (std::size_t s = 0; s < std::min(kRefSignals, signals); ++s) {
    for (std::size_t i = 0; i < n; ++i) xc[i] = {x[s * n + i], 0.0f};
    fft::reference_dft(xc, std::span<c32>(ref.data(), keep), n);
    std::span<c32> got(spec.data() + s * keep, keep);
    fault_flip(got);
    worst = std::max(worst, rel_l2(floats(got), floats(std::span<const c32>(ref.data(), keep))));
    // C2R reference: the Hermitian extension of the stored bins, with the
    // imaginary parts of bins 0 and n/2 projected away (irfft semantics).
    std::fill(full.begin(), full.end(), c32{0.0f, 0.0f});
    for (std::size_t k = 0; k < keep; ++k) {
      c32 v = spec[s * keep + k];
      if (k == 0 || 2 * k == n) v.im = 0.0f;
      full[k] = v;
      if (k != 0 && 2 * k != n) full[n - k] = {v.re, -v.im};
    }
    fft::reference_idft(full, ref, n, true);
    for (std::size_t i = 0; i < n; ++i) ref_back[i] = ref[i].re;
    worst = std::max(worst, rel_l2(std::span<const float>(back.data() + s * n, n),
                                   std::span<const float>(ref_back)));
  }
  rep.check(worst <= kFftTol, "fft.rfft/irfft vs fft::reference_dft: rel-L2 " +
                                  std::to_string(worst));
}

std::span<const float> as_floats(const std::vector<float>& v) { return v; }
std::span<const float> as_floats(const std::vector<c32>& v) { return floats(v); }

template <class Pipeline, class Input, class Output>
void run_row(Pipeline& p, const LayerShape& s, const Input& u, const std::vector<c32>& w,
             Output& out) {
  if constexpr (std::is_same_v<Input, std::vector<float>>) {
    p.run_batched_real(u, w, out, s.batch);
  } else {
    p.run_batched(u, w, out, s.batch);
  }
}

// One spectral layer through each ladder row at the workload's batch.
template <class Problem, class Input, class Output>
double probe_ladder(const LayerShape& s, const Problem& prob, const Input& u,
                    std::size_t out_elems, Report& rep, Tracer& tr) {
  const auto w = random_c32(s.hidden * s.hidden, s.seed + 7);
  const turbofno::gpusim::GpuSpec a100;
  double ms[5] = {};
  double model_s[5] = {};
  Output ref;
  for (std::size_t i = 0; i < 5; ++i) {
    const auto v = fused::kAllVariants[i];
    auto p = make_row(v, prob, s.is_2d);
    Output out(out_elems);
    run_row(*p, s, u, w, out);  // warm-up: plans, packed weights, first touch
    const std::string label = kVariantLabel[i];
    const std::string span = "fused." + label;
    const auto t = sample_calls(tr, span.c_str(), 0.5, 3, 200, [&] { run_row(*p, s, u, w, out); });
    ms[i] = median(t) * 1e3;
    const auto& c = p->counters();
    model_s[i] = turbofno::gpusim::predict(a100, c).total_seconds;
    rep.metric(span + ".ms", ms[i], "ms");
    rep.metric(span + ".bytes", static_cast<double>(c.total().bytes_total()), "bytes");
    if (i == 0 || i == 4) {
      const auto& names = i == 0 ? std::span<const char* const>(kPytorchStages)
                                 : std::span<const char* const>(kFullyFusedStages);
      for (const char* stage : names) {
        double sec = 0.0;
        for (const auto& st : c.stages()) {
          if (st.name == stage) sec += st.seconds;
        }
        rep.metric(span + "." + stage + ".ms", sec * 1e3, "ms");
      }
      for (const auto& st : c.stages()) {
        if (std::find_if(names.begin(), names.end(),
                         [&](const char* n) { return st.name == n; }) == names.end()) {
          std::printf("note: unlisted stage %s.%s (%.6f ms)\n", span.c_str(), st.name.c_str(),
                      st.seconds * 1e3);
        }
      }
    }
    if (i == 0) {
      ref = out;
    } else {
      const double err = rel_l2(as_floats(out), as_floats(ref));
      rep.check(err <= kLadderTol, span + " vs the pytorch row: rel-L2 " + std::to_string(err));
    }
  }
  for (std::size_t i = 0; i < 5; ++i) {
    const std::string span = std::string("fused.") + kVariantLabel[i];
    rep.metric(span + ".vs_pytorch", (ms[0] / ms[i] - 1.0) * 100.0, "%");
    rep.metric(span + ".model_vs_pytorch", (model_s[0] / model_s[i] - 1.0) * 100.0, "%");
  }
  const auto chosen = fused::resolve_variant(fused::Variant::Auto, prob, s.is_2d);
  std::size_t idx = 0;
  while (idx < 5 && fused::kAllVariants[idx] != chosen) ++idx;
  std::printf("note: Backend::Auto resolves to %s\n", kVariantLabel[idx]);
  rep.metric("fused.auto_variant", static_cast<double>(idx), "ladder_index");
  return ms[idx];
}

}  // namespace

double Roofline::attainable_gflops(double flops_per_byte) const {
  return std::min(cgemm_gflops, copy_gbs * flops_per_byte);
}

std::vector<double> sample_calls(Tracer& tr, const char* span, double budget_s,
                                 std::size_t min_reps, std::size_t max_reps,
                                 const std::function<void()>& fn) {
  std::vector<double> t;
  const double start = now_s();
  while (t.size() < max_reps && (t.size() < min_reps || now_s() - start < budget_s)) {
    ScopedSpan sp(tr, span);
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return t;
}

Roofline probe_roofline(Report& rep, Tracer& tr) {
  namespace rt = turbofno::runtime;
  const int saved = rt::thread_count();
  rt::set_thread_count(0);  // the host's full parallelism
  Roofline r;
  // STREAM-style copy.  The arrays should be >= 4x the sum of the
  // last-level caches; 64 MiB keeps the run small, so on hosts reporting a
  // larger LLC the figure can include cache hits (both sizes are printed).
  constexpr std::size_t kBytes = std::size_t{64} << 20;
  const std::size_t n = kBytes / sizeof(double);
  turbofno::AlignedBuffer<double> a(n);
  turbofno::AlignedBuffer<double> b(n);
  rt::parallel_for(0, n, 1 << 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) a[i] = static_cast<double>(i);
  });
  const auto copy = [&] {
    rt::parallel_for(0, n, 1 << 16, [&](std::size_t lo, std::size_t hi) {
      std::memcpy(&b[lo], &a[lo], (hi - lo) * sizeof(double));
    });
  };
  copy();
  const auto tc = sample_calls(tr, "roofline.copy", 0.3, 5, 50, copy);
  r.copy_gbs = 2.0 * static_cast<double>(kBytes) / median(tc) * 1e-9;
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf("note: roofline copy arrays 2 x %zu MiB; last-level cache reported %ld KiB\n",
              kBytes >> 20, llc > 0 ? llc / 1024 : 0L);

  // CGEMM at a compute-bound size (arithmetic intensity ~ M/3 FLOP/byte).
  constexpr std::size_t m = 512;
  const auto A = random_c32(m * m, 11);
  const auto B = random_c32(m * m, 12);
  std::vector<c32> C(m * m);
  const c32 one{1.0f, 0.0f};
  const c32 zero{0.0f, 0.0f};
  const auto gemm = [&] {
    turbofno::gemm::cgemm(m, m, m, one, A.data(), m, B.data(), m, zero, C.data(), m);
  };
  gemm();
  const auto tg = sample_calls(tr, "roofline.cgemm", 0.3, 5, 100, gemm);
  r.cgemm_gflops = static_cast<double>(turbofno::trace::cgemm_flops(m, m, m)) / median(tg) * 1e-9;
  rt::set_thread_count(saved);
  rep.metric("roofline.copy_gbs", r.copy_gbs, "GB/s");
  rep.metric("roofline.cgemm_gflops", r.cgemm_gflops, "GFLOP/s");
  return r;
}

void probe_parallel_for(std::size_t items, Report& rep, Tracer& tr) {
  const auto t = sample_calls(tr, "runtime.parallel_for", 0.2, 100, 20000, [&] {
    turbofno::runtime::parallel_for(0, items, 1, [](std::size_t, std::size_t) {});
  });
  rep.metric("runtime.parallel_for.us", median(t) * 1e6, "us");
}

double probe_kernel_layers(const LayerShape& s, const Roofline& roof, Report& rep, Tracer& tr) {
  g_fault_reference = s.fault;
  // ---- fft: the workload's own plan descs (the Y axis in 2D).
  const std::size_t len = s.is_2d ? s.ny : s.n;
  const std::size_t keep = s.is_2d ? s.modes_y : s.modes;
  const std::size_t signals = s.batch * s.hidden * (s.is_2d ? s.n : 1);
  const fft::FftPlan trunc({len, fft::Direction::Forward, keep, 0});
  const fft::FftPlan pad({len, fft::Direction::Inverse, 0, keep});
  const fft::FftPlan dense({len, fft::Direction::Forward, 0, 0});
  const auto tt = time_fft("fft.trunc_fwd", trunc, signals, s.seed, rep, tr);
  const auto tp = time_fft("fft.pad_inv", pad, signals, s.seed + 1, rep, tr);
  const auto td = time_fft("fft.dense_fwd", dense, signals, s.seed + 2, rep, tr);
  rep.metric("fft.trunc_fwd.ms", tt.seconds * 1e3, "ms");
  rep.metric("fft.trunc_fwd.gbs", tt.bytes / tt.seconds * 1e-9, "GB/s");
  rep.metric("fft.trunc_fwd.roofline_frac",
             tt.flops / tt.seconds * 1e-9 / roof.attainable_gflops(tt.flops / tt.bytes),
             "fraction");
  rep.metric("fft.pad_inv.ms", tp.seconds * 1e3, "ms");
  rep.metric("fft.dense_fwd.ms", td.seconds * 1e3, "ms");
  rep.metric("fft.trunc_over_dense", tt.seconds / td.seconds, "ratio");

  // ---- fft real lane: the R2C/C2R plans along the (leading) n / nx axis.
  const std::size_t rkeep = s.modes / 2 + 1;
  const std::size_t rsignals = s.batch * s.hidden * (s.is_2d ? s.ny : 1);
  time_real_fft(s.n, rkeep, rsignals, s.seed + 3, rep, tr);

  // ---- gemm: the spectral CGEMM, M = retained modes x batch, N = K = hidden.
  const std::size_t kept_x = s.is_2d ? rkeep : s.modes;
  const std::size_t M = s.batch * kept_x * (s.is_2d ? s.modes_y : 1);
  const std::size_t K = s.hidden;
  const std::size_t N = s.hidden;
  const auto A = random_c32(M * K, s.seed + 4);
  const auto B = random_c32(K * N, s.seed + 5);
  std::vector<c32> C(M * N);
  std::vector<c32> Cref(M * N);
  const c32 one{1.0f, 0.0f};
  const c32 zero{0.0f, 0.0f};
  const auto tg = sample_calls(tr, "gemm.cgemm", 0.4, 5, 5000, [&] {
    turbofno::gemm::cgemm(M, N, K, one, A.data(), K, B.data(), N, zero, C.data(), N);
  });
  turbofno::gemm::cgemm_reference(M, N, K, one, A.data(), K, B.data(), N, zero, Cref.data(), N);
  fault_flip(C);
  const double gerr = rel_l2(floats(C), floats(Cref));
  rep.check(gerr <= kGemmTol,
            "gemm.cgemm vs gemm::cgemm_reference: rel-L2 " + std::to_string(gerr));
  const double gflop = static_cast<double>(turbofno::trace::cgemm_flops(M, N, K));
  const double gbytes = static_cast<double>((M * K + K * N + M * N) * sizeof(c32));
  const double gsec = median(tg);
  rep.metric("gemm.cgemm.ms", gsec * 1e3, "ms");
  rep.metric("gemm.cgemm.gflops", gflop / gsec * 1e-9, "GFLOP/s");
  rep.metric("gemm.cgemm.roofline_frac",
             gflop / gsec * 1e-9 / roof.attainable_gflops(gflop / gbytes), "fraction");

  // ---- fused: the five ladder rows at the workload's batch (2D on the
  // real lane, 1D on the complex lane, as the workloads run them).
  if (s.is_2d) {
    const turbofno::baseline::Spectral2dProblem prob{s.batch, s.hidden, s.hidden, s.n,
                                                     s.ny,    s.modes,  s.modes_y};
    const std::size_t elems = s.batch * s.hidden * s.n * s.ny;
    return probe_ladder<decltype(prob), std::vector<float>, std::vector<float>>(
        s, prob, random_f32(elems, s.seed + 6), elems, rep, tr);
  }
  const turbofno::baseline::Spectral1dProblem prob{s.batch, s.hidden, s.hidden, s.n, s.modes};
  const std::size_t elems = s.batch * s.hidden * s.n;
  return probe_ladder<decltype(prob), std::vector<c32>, std::vector<c32>>(
      s, prob, random_c32(elems, s.seed + 6), elems, rep, tr);
}

}  // namespace perfbench
