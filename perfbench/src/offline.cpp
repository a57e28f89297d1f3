// Offline closed-loop workloads (fno1d_burgers, fno2d_vorticity_real): one
// caller runs Session::run / run_real back to back on a fixed batch, and
// every output is checked against the PyTorch-row session and against the
// first call (bitwise repeatability).
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/engine.hpp"
#include "core/workload.hpp"
#include "fft/plan_cache.hpp"
#include "layers.hpp"
#include "runtime/parallel.hpp"

namespace perfbench {

namespace core = turbofno::core;
namespace rt = turbofno::runtime;
using turbofno::c32;

namespace {

// Offline outputs against the PyTorch-row session (2.6e-7 measured on
// fno1d_burgers; the rows evaluate different FFT factorizations).
constexpr double kRefTol = 1e-5;
constexpr int kSetupReps = 3;

ModelCase offline_case(const std::string& workload) {
  ModelCase mc;
  if (workload == "fno1d_burgers") {
    mc.c1 = core::Fno1dConfig{1, 64, 1, 256, 64, 4, core::Backend::Auto};
    mc.batch = 64;
  } else if (workload == "fno2d_vorticity_real") {
    mc.is_2d = true;
    mc.c2 = core::Fno2dConfig{1, 32, 1, 64, 64, 16, 16, 4, core::Backend::Auto};
    mc.batch = 16;
  } else {
    throw std::invalid_argument("unknown offline workload " + workload);
  }
  return mc;
}

// One model case's session, inputs and outputs.
class Runner {
 public:
  Runner(const ModelCase& mc, unsigned seed) : mc_(mc) {
    if (mc.is_2d) {
      // Real parts of vorticity fields through the real lane.
      const auto& c = mc.c2;
      const std::size_t field = c.nx * c.ny;
      std::vector<c32> tmp(field);
      in_elems_ = c.in_channels * field;
      out_elems_ = c.out_channels * field;
      fin_.resize(mc.batch * in_elems_);
      fout_.resize(mc.batch * out_elems_);
      for (std::size_t f = 0; f < mc.batch * c.in_channels; ++f) {
        core::vorticity_field(tmp, c.nx, c.ny, seed + static_cast<unsigned>(f));
        for (std::size_t i = 0; i < field; ++i) fin_[f * field + i] = tmp[i].re;
      }
    } else {
      const auto& c = mc.c1;
      in_elems_ = c.in_channels * c.n;
      out_elems_ = c.out_channels * c.n;
      in_.resize(mc.batch * in_elems_);
      out_.resize(mc.batch * out_elems_);
      core::burgers_batch(in_, mc.batch, c.in_channels, c.n, seed);
    }
  }

  struct Setup {
    double total_s = 0.0;
    double create_ms = 0.0;
    double first_ms = 0.0;
  };

  /// Engine + register_model + create_session + first call, with `backend`.
  Setup setup(core::Backend backend) {
    session_.reset();
    engine_.reset();
    Setup s;
    const double t0 = now_s();
    engine_ = std::make_unique<core::Engine>();
    core::ModelHandle h = 0;
    if (mc_.is_2d) {
      auto c = mc_.c2;
      c.backend = backend;
      h = engine_->register_model(c);
    } else {
      auto c = mc_.c1;
      c.backend = backend;
      h = engine_->register_model(c);
    }
    const double t1 = now_s();
    session_.emplace(engine_->create_session(h, mc_.batch));
    const double t2 = now_s();
    call(mc_.batch);
    const double t3 = now_s();
    s.total_s = t3 - t0;
    s.create_ms = (t2 - t1) * 1e3;
    s.first_ms = (t3 - t2) * 1e3;
    return s;
  }

  void call(std::size_t batch) {
    if (mc_.is_2d) {
      session_->run_real(fin_, fout_, batch);
    } else {
      session_->run(in_, out_, batch);
    }
  }

  /// Output bytes of the first `batch` items.
  [[nodiscard]] std::span<const std::byte> out_bytes(std::size_t batch) const {
    if (mc_.is_2d) {
      return std::as_bytes(std::span<const float>(fout_).first(batch * out_elems_));
    }
    return std::as_bytes(std::span<const c32>(out_).first(batch * out_elems_));
  }

 private:
  ModelCase mc_;
  std::size_t in_elems_ = 0;
  std::size_t out_elems_ = 0;
  std::vector<c32> in_, out_;
  std::vector<float> fin_, fout_;
  std::unique_ptr<core::Engine> engine_;
  std::optional<core::Session> session_;
};

struct CallStats {
  std::vector<double> ms;
  double seconds = 0.0;  // sum of call times
};

// Closed loop of `batch`-item calls for at least `budget_s` and `min_calls`;
// each output must equal `want` bitwise.
CallStats time_calls(Runner& r, std::size_t batch, double budget_s, std::size_t min_calls,
                     std::span<const std::byte> want, bool corrupt_first, const char* span,
                     Report& rep, Tracer& tr) {
  CallStats cs;
  const double start = now_s();
  while (cs.ms.size() < min_calls || now_s() - start < budget_s) {
    double dt = 0.0;
    {
      ScopedSpan sp(tr, span);
      const double t0 = now_s();
      r.call(batch);
      dt = now_s() - t0;
    }
    cs.ms.push_back(dt * 1e3);
    cs.seconds += dt;
    const auto got = r.out_bytes(batch);
    const bool same = !(corrupt_first && cs.ms.size() == 1) &&
                      std::memcmp(got.data(), want.data(), want.size()) == 0;
    rep.check(same, std::string(span) + " output differs from the first call (bitwise)");
  }
  return cs;
}

std::size_t min_calls_for(double seconds) { return seconds >= 10.0 ? 100 : 10; }

}  // namespace

void probe_model_layers(const ModelCase& mc, const RunArgs& args, Report& rep, Tracer& tr) {
  const auto seed = static_cast<unsigned>(args.seed);
  const int threads = rt::thread_count();
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  // core: cold set-up costs (plan cache cleared before each repetition).
  Runner r(mc, seed);
  std::vector<double> create_ms;
  std::vector<double> first_ms;
  for (int k = 0; k < kSetupReps; ++k) {
    turbofno::fft::plan_cache_clear();
    ScopedSpan sp(tr, "core.setup");
    const auto s = r.setup(core::Backend::Auto);
    create_ms.push_back(s.create_ms);
    first_ms.push_back(s.first_ms);
  }
  rep.metric("core.create_session.ms", median(create_ms), "ms");
  rep.metric("core.first_run.ms", median(first_ms), "ms");

  const auto call_ms = [&](int t) {
    rt::set_thread_count(t);
    r.call(mc.batch);
    const auto v = sample_calls(tr, "core.session_run", 0.5, 3, 500, [&] { r.call(mc.batch); });
    rt::set_thread_count(threads);
    return median(v) * 1e3;
  };
  const double call_here = call_ms(threads);
  const double call_1 = call_ms(1);
  const double call_n = call_ms(nproc);
  std::printf("note: Session::run %.4f ms at 1 thread, %.4f ms at %d threads\n", call_1, call_n,
              nproc);
  rep.metric("core.thread_scaling_eff", call_1 / call_n / nproc, "fraction");

  const Roofline roof = probe_roofline(rep, tr);
  probe_parallel_for(mc.batch * (mc.is_2d ? mc.c2.hidden : mc.c1.hidden), rep, tr);

  LayerShape s;
  s.is_2d = mc.is_2d;
  s.batch = mc.batch;
  s.seed = seed;
  s.fault = fault_is(args, "reference");
  std::size_t layers = 0;
  if (mc.is_2d) {
    s.hidden = mc.c2.hidden;
    s.n = mc.c2.nx;
    s.ny = mc.c2.ny;
    s.modes = mc.c2.modes_x;
    s.modes_y = mc.c2.modes_y;
    layers = mc.c2.layers;
  } else {
    s.hidden = mc.c1.hidden;
    s.n = mc.c1.n;
    s.modes = mc.c1.modes;
    layers = mc.c1.layers;
  }
  const double auto_ms = probe_kernel_layers(s, roof, rep, tr);
  rep.metric("core.spectral_share", static_cast<double>(layers) * auto_ms / call_here, "fraction");
}

void run_offline(const RunArgs& args, Report& rep, Tracer& tr) {
  const ModelCase mc = offline_case(args.workload);
  const auto seed = static_cast<unsigned>(args.seed);
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  rt::set_thread_count(nproc);
  std::printf("config runtime_threads=%d batch=%zu lane=%s\n", rt::thread_count(), mc.batch,
              mc.is_2d ? "real" : "complex");

  Runner r(mc, seed);
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupReps; ++k) {
    turbofno::fft::plan_cache_clear();
    setup_s.push_back(r.setup(core::Backend::Auto).total_s);
  }
  const std::vector<std::byte> first(r.out_bytes(mc.batch).begin(), r.out_bytes(mc.batch).end());

  {
    Runner ref(mc, seed);
    ref.setup(core::Backend::PyTorch);
    // Both lanes hold float components, so compare the outputs as floats.
    const auto as_floats = [](std::span<const std::byte> b) {
      return std::span<const float>(reinterpret_cast<const float*>(b.data()),
                                    b.size() / sizeof(float));
    };
    const double err = rel_l2(as_floats(first), as_floats(ref.out_bytes(mc.batch)));
    std::printf("note: rel-L2 vs the PyTorch-row session %.3e (limit %.0e)\n", err, kRefTol);
    rep.check(err <= kRefTol, "output vs the PyTorch-row session: rel-L2 " + std::to_string(err));
  }

  const bool corrupt = fault_is(args, "output");
  const std::size_t min_calls = min_calls_for(args.seconds);
  if (!args.trace) {
    const auto batch = time_calls(r, mc.batch, args.seconds, min_calls, first, corrupt,
                                  "session.run", rep, tr);
    std::printf("note: %zu calls of batch %zu\n", batch.ms.size(), mc.batch);
    rep.metric("fields_per_s", static_cast<double>(mc.batch * batch.ms.size()) / batch.seconds,
               "fields/s");
    rep.metric("call_ms_p50", quantile(batch.ms, 0.5), "ms");
    rep.metric("call_ms_p90", quantile(batch.ms, 0.9), "ms");
    // The contract's workload-independent name (see perfbench/README.md).
    rep.metric("lat_ms_p50", quantile(batch.ms, 0.5), "ms");
    rep.metric("setup_s", median(setup_s), "s");
    return;
  }

  // Traced: the same closed loop untraced, then traced (the difference is
  // the tracing overhead), then every layer probe.
  tr.enable(false);
  const auto plain = time_calls(r, mc.batch, 0.2 * args.seconds, min_calls / 2, first, corrupt,
                                "session.run", rep, tr);
  tr.enable(true);
  const auto traced = time_calls(r, mc.batch, 0.2 * args.seconds, min_calls / 2, first, false,
                                 "session.run", rep, tr);
  const double p_plain = quantile(plain.ms, 0.5);
  const double p_traced = quantile(traced.ms, 0.5);
  rep.metric("trace.overhead_pct", (p_traced - p_plain) / p_plain * 100.0, "%");

  probe_model_layers(mc, args, rep, tr);
  probe_serving_layers(args, rep, tr, 1.0);
}

}  // namespace perfbench
