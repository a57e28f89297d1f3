// serve_open_mixed: seeded Poisson arrivals from one process into an
// in-process shard::Router fronting two shard::Workers (worker 0: a 1D c32
// model, worker 1: a 2D f32 real-lane model), at two fixed rates and up a
// fixed rate ladder.  Every payload must be bitwise equal to the direct
// Session output for its input (the router's documented contract).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <thread>

#include "bench.hpp"
#include "core/engine.hpp"
#include "core/workload.hpp"
#include "fft/plan_cache.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "net/client.hpp"
#include "net/socket_server.hpp"
#include "runtime/parallel.hpp"
#include "serve/server.hpp"
#include "shard/router.hpp"
#include "shard/topology.hpp"
#include "shard/worker.hpp"

namespace perfbench {

namespace core = turbofno::core;
namespace net = turbofno::net;
namespace rt = turbofno::runtime;
namespace serve = turbofno::serve;
namespace shard = turbofno::shard;

namespace {

// Fixed once for this workload (also recorded in BENCHMARK.json's "why"):
// `low` leaves the fleet mostly idle; `high` sits well under the 22-37k
// req/s the fleet sustained on a 4-vCPU KVM guest, where whole-host stalls
// made fixed rates near 9-10k req/s trip the validity rules; the ladder
// climbs from 2x `high` in fixed steps.  Changing any of these redefines
// the workload.
constexpr double kLowRps = 200.0;
constexpr double kHighRps = 6000.0;
// ~15% steps from 2x `high`.
constexpr double kLadderRps[] = {12000.0, 13800.0, 15900.0, 18300.0, 21000.0, 24200.0, 27800.0,
                                 32000.0, 36800.0, 42300.0, 48700.0, 56000.0, 64400.0};
constexpr int kRungWindows = 3;
constexpr double kWindowS = 0.4;
constexpr double kP99LimitMs = 25.0;
// Pinned runtime (parallel_for) thread count of the serving processes.
constexpr int kServeThreads = 1;
// A fixed-rate phase in which the generator sent more than a tenth of its
// requests later than this is invalid.  (Whole-host stalls of several ms,
// which delay every thread at once, make a p99 lag limit useless.)
constexpr double kMaxLagP90Ms = 2.0;
constexpr std::size_t kPool = 64;
constexpr int kSetupReps = 3;

core::Fno1dConfig model1d() { return {1, 8, 1, 64, 16, 1, core::Backend::Auto}; }
core::Fno2dConfig model2d() { return {1, 8, 1, 16, 16, 4, 4, 1, core::Backend::Auto}; }

shard::Topology topology() {
  shard::Topology t;
  t.add(model1d(), 0);
  t.add(model2d(), 1);
  return t;
}

// Seeded inputs and their outputs from direct Sessions of the same configs.
Payloads make_payloads(unsigned seed) {
  Payloads pl;
  const auto c1 = model1d();
  const auto c2 = model2d();
  pl.elems[0] = c1.in_channels * c1.n;
  pl.elems[1] = c2.in_channels * c2.nx * c2.ny;
  pl.dims[0] = {static_cast<std::uint32_t>(c1.in_channels), static_cast<std::uint32_t>(c1.n)};
  pl.dims[1] = {static_cast<std::uint32_t>(c2.in_channels), static_cast<std::uint32_t>(c2.nx),
                static_cast<std::uint32_t>(c2.ny)};
  pl.in1.resize(kPool * pl.elems[0]);
  pl.out1.resize(kPool * pl.elems[0]);
  pl.in2.resize(kPool * pl.elems[1]);
  pl.out2.resize(kPool * pl.elems[1]);
  core::burgers_batch(pl.in1, kPool, c1.in_channels, c1.n, seed);
  std::vector<c32> tmp(c2.nx * c2.ny);
  for (std::size_t p = 0; p < kPool; ++p) {
    core::vorticity_field(tmp, c2.nx, c2.ny, seed + 1000u + static_cast<unsigned>(p));
    for (std::size_t i = 0; i < tmp.size(); ++i) pl.in2[p * pl.elems[1] + i] = tmp[i].re;
  }
  core::Engine e;
  auto s1 = e.create_session(e.register_model(c1));
  auto s2 = e.create_session(e.register_model(c2));
  for (std::size_t p = 0; p < kPool; ++p) {
    s1.run(std::span<const c32>(pl.in1).subspan(p * pl.elems[0], pl.elems[0]),
           std::span<c32>(pl.out1).subspan(p * pl.elems[0], pl.elems[0]), 1);
    s2.run_real(std::span<const float>(pl.in2).subspan(p * pl.elems[1], pl.elems[1]),
                std::span<float>(pl.out2).subspan(p * pl.elems[1], pl.elems[1]), 1);
  }
  return pl;
}

// The measured fleet: two workers and the router in front of them.
struct Fleet {
  std::unique_ptr<shard::Worker> w0;
  std::unique_ptr<shard::Worker> w1;
  std::unique_ptr<shard::Router> router;

  explicit Fleet(const shard::Topology& topo) {
    w0 = std::make_unique<shard::Worker>(topo, 0);
    w1 = std::make_unique<shard::Worker>(topo, 1);
    w0->start();
    w1->start();
    router = std::make_unique<shard::Router>(topo);
    router->set_worker_endpoint(0, w0->port());
    router->set_worker_endpoint(1, w1->port());
    router->start();
  }
  ~Fleet() {
    router->stop();
    w0->stop();
    w1->stop();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
};

// Router + workers started, both clients connected, first response of each
// model received and checked.
double timed_setup(std::unique_ptr<Fleet>& fleet, const Payloads& pl, Report& rep) {
  fleet.reset();
  turbofno::fft::plan_cache_clear();
  const double t0 = now_s();
  fleet = std::make_unique<Fleet>(topology());
  net::Client::ConnectOptions co;
  co.timeout_s = 5.0;
  co.attempts = 20;
  co.io_timeout_s = 10.0;
  net::Client a;
  net::Client b;
  a.connect(fleet->router->port(), "127.0.0.1", co);
  b.connect(fleet->router->port(), "127.0.0.1", co);
  const auto r1 = a.infer(0, net::Dtype::C32, pl.dims[0],
                          std::as_bytes(std::span<const c32>(pl.in1).first(pl.elems[0])));
  const auto r2 = b.infer(1, net::Dtype::F32, pl.dims[1],
                          std::as_bytes(std::span<const float>(pl.in2).first(pl.elems[1])));
  const double t = now_s() - t0;
  const auto want1 = std::as_bytes(std::span<const c32>(pl.out1).first(pl.elems[0]));
  const auto want2 = std::as_bytes(std::span<const float>(pl.out2).first(pl.elems[1]));
  rep.check(r1.head.status == net::WireStatus::Ok && r1.payload().size() == want1.size() &&
                std::memcmp(r1.payload().data(), want1.data(), want1.size()) == 0,
            "first 1D response vs the direct Session");
  rep.check(r2.head.status == net::WireStatus::Ok && r2.payload().size() == want2.size() &&
                std::memcmp(r2.payload().data(), want2.data(), want2.size()) == 0,
            "first 2D response vs the direct Session");
  return t;
}

void print_phase(const char* level, const char* name, double rate, const PhaseStats& s) {
  std::printf(
      "phase %-5s %-6s rate=%.0f/s sent=%zu ok=%zu failed=%zu (lost %zu) wrong=%zu p50=%.3fms "
      "p99=%.3fms lag_p90=%.3fms lag_p99=%.3fms backlog_grew=%d truncated=%d\n",
      level, name, rate, s.sent, s.ok, s.failed, s.lost, s.wrong, s.p50_ms, s.p99_ms,
      s.lag_p90_ms, s.lag_p99_ms, s.backlog_grew ? 1 : 0, s.truncated ? 1 : 0);
}

// Books a phase's requests into the report: wrong payloads fail the run.
void account(const PhaseStats& s, Report& rep) {
  rep.ops(s.sent - s.wrong, s.failed);
  for (std::size_t i = 0; i < s.wrong; ++i) {
    rep.check(false, "served payload differs from the direct Session output");
  }
}

// A fixed-rate phase must have been generated on time with no growing
// backlog, or its latencies mean nothing.
void require_valid(const char* name, const PhaseStats& s, Report& rep) {
  if (s.lag_p90_ms > kMaxLagP90Ms) {
    rep.invalidate(std::string(name) + ": the generator fell behind (lag p90 " +
                   std::to_string(s.lag_p90_ms) + " ms)");
  }
  if (s.backlog_grew || s.truncated) {
    rep.invalidate(std::string(name) + ": the backlog grew at a fixed rate");
  }
}

bool window_passes(const PhaseStats& s) {
  return s.failed == 0 && s.wrong == 0 && !s.backlog_grew && !s.truncated &&
         s.lag_p90_ms <= kMaxLagP90Ms && s.p99_ms <= kP99LimitMs;
}

std::vector<Req> schedule(double rate, double duration, std::uint64_t seed, std::uint64_t phase) {
  Rng rng(seed * 0x100000001b3ull + phase);
  return poisson_schedule(rate, duration, kPool, rng);
}

// Highest ladder rate whose p99 stays under the limit without a growing
// backlog.  Each rung runs kRungWindows independent windows and passes when
// most of them do (so one host stall cannot fail a rung); its p99 is the
// median of the windows' p99s.  The result is interpolated in log(p99)
// between the last passing rung and the first failing one, where a failing
// rung whose median p99 is under the limit (it failed by backlog growth, a
// late generator or refusals) counts as p99 = 2x the limit.  The climb
// stops when `budget_s` is spent; the last passing rung is then reported.
double sustained_rps(std::uint16_t port, const Payloads& pl, std::uint64_t seed, double budget_s,
                     Report& rep) {
  const double start = now_s();
  double pass_rate = 0.0;
  double pass_p99 = 0.0;
  std::uint64_t phase = 100;
  for (const double rate : kLadderRps) {
    if (now_s() - start > budget_s) {
      std::printf("note: ladder budget spent; sustained_rps is the last passing rung\n");
      return pass_rate;
    }
    std::vector<double> p99;
    int passed = 0;
    for (int w = 0; w < kRungWindows; ++w) {
      const auto s = run_socket_phase(port, schedule(rate, kWindowS, seed, phase++), pl, false);
      print_phase("shard", "ladder", rate, s);
      account(s, rep);
      p99.push_back(s.p99_ms);
      if (window_passes(s)) ++passed;
    }
    const double rung_p99 = median(p99);
    if (2 * passed > kRungWindows) {
      pass_rate = rate;
      pass_p99 = rung_p99;
      continue;
    }
    const double fail_p99 =
        std::isfinite(rung_p99) && rung_p99 > kP99LimitMs ? rung_p99 : 2.0 * kP99LimitMs;
    if (pass_rate == 0.0) {
      std::printf("note: the lowest ladder rung failed\n");
      return rate * kP99LimitMs / fail_p99;
    }
    const double f = (std::log(kP99LimitMs) - std::log(pass_p99)) /
                     (std::log(fail_p99) - std::log(pass_p99));
    return pass_rate + std::clamp(f, 0.0, 1.0) * (rate - pass_rate);
  }
  std::printf("note: every ladder rung passed; sustained_rps is the top rung\n");
  return pass_rate;
}

}  // namespace

void probe_serving_layers(const RunArgs& args, Report& rep, Tracer& tr, double phase_s) {
  const int saved = rt::thread_count();
  rt::set_thread_count(kServeThreads);
  const auto pl = make_payloads(static_cast<unsigned>(args.seed));
  const std::pair<const char*, double> rates[] = {{"low", kLowRps}, {"high", kHighRps}};

  // The same schedules into each level of the serial -> serve -> socket ->
  // router ladder: an in-process InferenceServer, a direct SocketServer,
  // and the router fleet.  serve and net host both models in one server
  // with two executors, so each model still has one executor, as in the
  // fleet's workers.
  PhaseStats lvl[3][2];
  {
    serve::InferenceServer::Options so;
    so.workers = 2;
    serve::InferenceServer srv(so);
    srv.load_model(model1d());
    srv.load_model(model2d());
    for (std::size_t r = 0; r < 2; ++r) {
      ScopedSpan sp(tr, "serve.phase");
      const auto sched = schedule(rates[r].second, phase_s, args.seed, 10 + r);
      lvl[0][r] = run_inproc_phase(srv, sched, pl);
      print_phase("serve", rates[r].first, rates[r].second, lvl[0][r]);
      account(lvl[0][r], rep);
    }
  }
  {
    net::SocketServer::Options so;
    so.port = 0;
    so.serve.workers = 2;
    net::SocketServer srv(so);
    srv.load_model(model1d());
    srv.load_model(model2d());
    srv.start();
    for (std::size_t r = 0; r < 2; ++r) {
      ScopedSpan sp(tr, "net.phase");
      const auto sched = schedule(rates[r].second, phase_s, args.seed, 10 + r);
      lvl[1][r] = run_socket_phase(srv.bound_port(), sched, pl, false);
      print_phase("net", rates[r].first, rates[r].second, lvl[1][r]);
      account(lvl[1][r], rep);
    }
    srv.stop();
  }
  {
    Fleet fleet(topology());
    for (std::size_t r = 0; r < 2; ++r) {
      ScopedSpan sp(tr, "shard.phase");
      const auto sched = schedule(rates[r].second, phase_s, args.seed, 10 + r);
      lvl[2][r] = run_socket_phase(fleet.router->port(), sched, pl, false);
      print_phase("shard", rates[r].first, rates[r].second, lvl[2][r]);
      account(lvl[2][r], rep);
    }
  }
  for (std::size_t r = 0; r < 2; ++r) {
    const std::string rate = rates[r].first;
    const auto& sv = lvl[0][r];
    const auto& nt = lvl[1][r];
    const auto& sh = lvl[2][r];
    rep.metric("serve.lat_ms_p50." + rate, sv.p50_ms, "ms");
    rep.metric("serve.lat_ms_p99." + rate, sv.p99_ms, "ms");
    rep.metric("serve.queue_ms_p50." + rate, sv.queue_ms_p50, "ms");
    rep.metric("serve.exec_ms_p50." + rate, sv.exec_ms_p50, "ms");
    rep.metric("serve.avg_micro_batch." + rate, sv.avg_micro_batch, "requests");
    rep.metric("net.lat_ms_p50." + rate, nt.p50_ms, "ms");
    rep.metric("net.lat_ms_p99." + rate, nt.p99_ms, "ms");
    rep.metric("net.hop_ms_p50." + rate, nt.p50_ms - sv.p50_ms, "ms");
    rep.metric("shard.lat_ms_p50." + rate, sh.p50_ms, "ms");
    rep.metric("shard.lat_ms_p99." + rate, sh.p99_ms, "ms");
    rep.metric("shard.hop_ms_p50." + rate, sh.p50_ms - nt.p50_ms, "ms");
    rep.metric("loadgen.lag_ms_p99." + rate, sh.lag_p99_ms, "ms");
  }

  // Wire codec: encode_request + crc32 + decode_response on each model's
  // frame, averaged over the two models.
  double codec_s = 0.0;
  for (std::size_t m = 0; m < 2; ++m) {
    net::RequestHead h;
    h.model = static_cast<std::uint32_t>(m);
    h.dtype = m == 0 ? net::Dtype::C32 : net::Dtype::F32;
    h.ndim = static_cast<std::uint16_t>(pl.dims[m].size());
    std::copy(pl.dims[m].begin(), pl.dims[m].end(), h.dims.begin());
    const auto payload =
        m == 0 ? std::as_bytes(std::span<const c32>(pl.in1).first(pl.elems[0]))
               : std::as_bytes(std::span<const float>(pl.in2).first(pl.elems[1]));
    std::vector<std::byte> req(net::encoded_request_bytes(h.ndim, payload.size()));
    std::vector<std::byte> resp(net::encoded_response_bytes(payload.size()));
    net::ResponseHead rh;
    rh.dtype = h.dtype;
    net::encode_response_prefix(resp, rh, payload.size());
    std::copy(payload.begin(), payload.end(),
              resp.begin() + static_cast<std::ptrdiff_t>(net::kHeaderBytes +
                                                         net::kResponsePrefixBytes));
    net::seal_response(resp);
    std::uint64_t sink = 0;
    const auto t = sample_calls(tr, "net.codec", 0.2, 1000, 20000, [&] {
      net::encode_request(req, h, payload);
      const std::span<const std::byte> body(resp.data() + net::kHeaderBytes,
                                            resp.size() - net::kHeaderBytes);
      sink += net::crc32(body);
      net::ResponseHead out;
      std::span<const std::byte> view;
      if (net::decode_response(body, out, view) == net::DecodeError::None) sink += view.size();
    });
    codec_s += median(t);
    // Keeps the timed work observable to the optimizer.
    if (sink == 0) std::printf("note: codec sink %llu\n", static_cast<unsigned long long>(sink));
  }
  rep.metric("net.codec_us", codec_s / 2.0 * 1e6, "us");
  rt::set_thread_count(saved);
}

void run_serving(const RunArgs& args, Report& rep, Tracer& tr) {
  rt::set_thread_count(kServeThreads);
  std::printf(
      "config runtime_threads=%d low_rps=%.0f high_rps=%.0f p99_limit_ms=%.1f "
      "connections=2 client_threads=4 mix=3:1(1d:2d) qos=1:3(high:normal)\n",
      rt::thread_count(), kLowRps, kHighRps, kP99LimitMs);
  const auto pl = make_payloads(static_cast<unsigned>(args.seed));
  const bool corrupt = fault_is(args, "output");

  std::unique_ptr<Fleet> fleet;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupReps; ++k) setup_s.push_back(timed_setup(fleet, pl, rep));
  const std::uint16_t port = fleet->router->port();

  // Warm-up at the low rate: correctness is checked, timings are not kept.
  account(run_socket_phase(port, schedule(kLowRps, 0.5, args.seed, 1), pl, false), rep);

  if (!args.trace) {
    const double S = args.seconds;
    const auto low = run_socket_phase(port, schedule(kLowRps, 0.25 * S, args.seed, 2), pl, corrupt);
    print_phase("shard", "low", kLowRps, low);
    account(low, rep);
    require_valid("low", low, rep);
    const auto high = run_socket_phase(port, schedule(kHighRps, 0.2 * S, args.seed, 3), pl, false);
    print_phase("shard", "high", kHighRps, high);
    account(high, rep);
    require_valid("high", high, rep);
    const double sustained = sustained_rps(port, pl, args.seed, 0.5 * S, rep);

    rep.metric("lat_ms_p50.low", low.p50_ms, "ms");
    rep.metric("lat_ms_p99.low", low.p99_ms, "ms");
    rep.metric("lat_ms_p50.high", high.p50_ms, "ms");
    rep.metric("lat_ms_p99.high", high.p99_ms, "ms");
    rep.metric("sustained_rps", sustained, "req/s");
    // The contract's workload-independent names (see perfbench/README.md).
    rep.metric("fields_per_s", high.completed_per_s, "fields/s");
    rep.metric("lat_ms_p50", high.p50_ms, "ms");
    rep.metric("setup_s", median(setup_s), "s");
    return;
  }

  // Traced: the end-to-end low phase untraced, then traced (the difference
  // is the tracing overhead), then every layer probe.
  const double phase_s = std::max(0.3, 0.1 * args.seconds);
  tr.enable(false);
  const auto plain = run_socket_phase(port, schedule(kLowRps, phase_s, args.seed, 2), pl, corrupt);
  account(plain, rep);
  tr.enable(true);
  PhaseStats traced;
  {
    ScopedSpan sp(tr, "shard.e2e");
    traced = run_socket_phase(port, schedule(kLowRps, phase_s, args.seed, 2), pl, false);
  }
  account(traced, rep);
  rep.metric("trace.overhead_pct", (traced.p50_ms - plain.p50_ms) / plain.p50_ms * 100.0, "%");
  fleet.reset();

  probe_serving_layers(args, rep, tr, phase_s);
  ModelCase mc;  // 1D, complex lane
  mc.c1 = model1d();
  mc.batch = serve::BatchingPolicy{}.max_batch;
  probe_model_layers(mc, args, rep, tr);
}

}  // namespace perfbench
