// Open-loop load generator of the serving workload: a seeded Poisson
// schedule of mixed 1D/2D requests, sent on time regardless of responses,
// either over sockets (two connections, each with one sender and one
// receiver thread) or straight into an in-process InferenceServer.
// Every response payload is compared bitwise with the direct Session
// output for the same input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "serve/server.hpp"
#include "tensor/complex.hpp"

namespace perfbench {

using turbofno::c32;

/// Inputs and their expected (direct Session) outputs for the two models:
/// model 0 is the 1D complex model, model 1 the 2D real-lane model.
struct Payloads {
  std::size_t elems[2] = {0, 0};  // per-request values (c32 for 0, float for 1)
  std::vector<std::uint32_t> dims[2];
  std::vector<c32> in1, out1;      // pool x elems[0]
  std::vector<float> in2, out2;    // pool x elems[1]
};

struct Req {
  double due = 0.0;      // seconds after the phase start
  std::uint8_t model = 0;
  std::uint8_t high = 0;  // Priority::High / Qos::High
  std::uint16_t input = 0;
};

/// Poisson arrivals at `rate` per second for `duration` seconds.  The mix
/// is 3:1 1D:2D and 1:3 High:Normal, all drawn from `rng`.
std::vector<Req> poisson_schedule(double rate, double duration, std::size_t pool, Rng& rng);

enum class Fate : std::uint8_t { NotSent, Ok, BadStatus, WrongPayload, Lost };

struct Outcome {
  double sent = 0.0;  // seconds after the phase start
  double done = 0.0;
  Fate fate = Fate::NotSent;
  double queue_s = 0.0;  // server-side timing, when the level reports it
  double exec_s = 0.0;
  std::uint32_t micro_batch = 0;
};

struct PhaseStats {
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;  // bad status or lost
  std::size_t lost = 0;    // of which: sent, never answered
  std::size_t wrong = 0;   // payload differs from the direct Session output
  double p50_ms = 0.0;     // from due time; failures count as +inf
  double p99_ms = 0.0;
  double lag_p90_ms = 0.0;  // how late the generator sent
  double lag_p99_ms = 0.0;
  double queue_ms_p50 = 0.0;
  double exec_ms_p50 = 0.0;
  double avg_micro_batch = 0.0;
  double completed_per_s = 0.0;  // ok responses / (last response - first send)
  bool backlog_grew = false;  // outstanding requests kept climbing
  bool truncated = false;     // stopped early: the window stayed full
};

/// At most this many requests may be outstanding; a due request waits for
/// the window, so a burst stays below the router's default per-worker
/// window + gap queue (64 + 128), beyond which requests are shed, even if
/// every outstanding request went to one worker.
inline constexpr std::size_t kMaxOutstanding = 128;

/// Sends `sched` over two connections to 127.0.0.1:`port` (a router or a
/// SocketServer whose model ids are 0 = 1D and 1 = 2D).  `corrupt_one`
/// (self-test) treats the first payload as if one byte had flipped.
PhaseStats run_socket_phase(std::uint16_t port, const std::vector<Req>& sched,
                            const Payloads& pl, bool corrupt_one);

/// Submits `sched` from two threads into `srv` (model ids 0 and 1).
PhaseStats run_inproc_phase(turbofno::serve::InferenceServer& srv, const std::vector<Req>& sched,
                            const Payloads& pl);

}  // namespace perfbench
