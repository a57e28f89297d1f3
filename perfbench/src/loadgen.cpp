#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <thread>

#include "net/client.hpp"

namespace perfbench {

namespace net = turbofno::net;
namespace serve = turbofno::serve;

namespace {

constexpr std::size_t kConns = 2;
constexpr double kIoTimeoutS = 10.0;
constexpr double kDrainTimeoutS = 10.0;
constexpr double kMaxHoldS = 1.0;

void sleep_until_s(double t) {
  const double d = t - now_s();
  if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

// Holds a due request while kMaxOutstanding requests are in flight (a host
// stall releases a burst of overdue sends; holding them keeps the burst
// below the router's shedding threshold, and the wait still counts in
// their latency, which is timed from the due time).  False when the window
// stayed full for kMaxHoldS: the fleet has stopped answering.
template <class Inflight>
bool hold_window(const Inflight& inflight) {
  const double start = now_s();
  while (inflight() >= kMaxOutstanding) {
    if (now_s() - start > kMaxHoldS) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

std::span<const std::byte> input_bytes(const Payloads& pl, const Req& r) {
  if (r.model == 0) {
    return std::as_bytes(std::span<const c32>(pl.in1).subspan(r.input * pl.elems[0], pl.elems[0]));
  }
  return std::as_bytes(std::span<const float>(pl.in2).subspan(r.input * pl.elems[1], pl.elems[1]));
}

std::span<const std::byte> expected_bytes(const Payloads& pl, const Req& r) {
  if (r.model == 0) {
    return std::as_bytes(
        std::span<const c32>(pl.out1).subspan(r.input * pl.elems[0], pl.elems[0]));
  }
  return std::as_bytes(std::span<const float>(pl.out2).subspan(r.input * pl.elems[1], pl.elems[1]));
}

bool same_bytes(std::span<const std::byte> got, std::span<const std::byte> want, bool corrupt) {
  if (got.size() != want.size()) return false;
  if (corrupt) return false;  // self-test: as if one byte of this payload had flipped
  return std::memcmp(got.data(), want.data(), got.size()) == 0;
}

// Outstanding-request samples taken at each send, in send order.  Medians
// of the first and last quarter, so one host stall (which releases a burst
// of overdue sends) does not read as growth.
bool backlog_grew(const std::vector<double>& outstanding) {
  const std::size_t q = outstanding.size() / 4;
  if (q < 8) return false;
  const auto b = outstanding.begin();
  const double first = median(std::vector<double>(b, b + static_cast<std::ptrdiff_t>(q)));
  const double last = median(std::vector<double>(outstanding.end() - static_cast<std::ptrdiff_t>(q),
                                                 outstanding.end()));
  return last > 2.0 * first + 16.0;
}

PhaseStats summarize(const std::vector<Req>& sched, const std::vector<Outcome>& out,
                     const std::vector<double>& outstanding, bool truncated) {
  PhaseStats s;
  s.truncated = truncated;
  s.backlog_grew = backlog_grew(outstanding);
  std::vector<double> lat;
  std::vector<double> lag;
  std::vector<double> queue;
  std::vector<double> exec;
  double mb = 0.0;
  double first_sent = std::numeric_limits<double>::infinity();
  double last_done = 0.0;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const Outcome& o = out[i];
    if (o.fate == Fate::NotSent) continue;
    ++s.sent;
    first_sent = std::min(first_sent, o.sent);
    last_done = std::max(last_done, o.done);
    lag.push_back((o.sent - sched[i].due) * 1e3);
    if (o.fate == Fate::Ok) {
      ++s.ok;
      lat.push_back((o.done - sched[i].due) * 1e3);
      queue.push_back(o.queue_s * 1e3);
      exec.push_back(o.exec_s * 1e3);
      mb += o.micro_batch;
    } else {
      // A failed, refused or wrong answer misses every latency limit.
      lat.push_back(std::numeric_limits<double>::infinity());
      if (o.fate == Fate::WrongPayload) {
        ++s.wrong;
      } else {
        ++s.failed;
        if (o.fate == Fate::Lost) ++s.lost;
      }
    }
  }
  s.p50_ms = quantile(lat, 0.50);
  s.p99_ms = quantile(lat, 0.99);
  s.lag_p90_ms = quantile(lag, 0.90);
  s.lag_p99_ms = quantile(lag, 0.99);
  s.queue_ms_p50 = quantile(queue, 0.50);
  s.exec_ms_p50 = quantile(exec, 0.50);
  s.avg_micro_batch = s.ok ? mb / static_cast<double>(s.ok) : 0.0;
  s.completed_per_s = s.ok && last_done > first_sent
                          ? static_cast<double>(s.ok) / (last_done - first_sent)
                          : 0.0;
  return s;
}

}  // namespace

std::vector<Req> poisson_schedule(double rate, double duration, std::size_t pool, Rng& rng) {
  std::vector<Req> s;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration) break;
    Req r;
    r.due = t;
    r.model = rng.uniform() < 0.25 ? 1 : 0;
    r.high = rng.uniform() < 0.25 ? 1 : 0;
    r.input = static_cast<std::uint16_t>(rng.next() % pool);
    s.push_back(r);
  }
  return s;
}

PhaseStats run_socket_phase(std::uint16_t port, const std::vector<Req>& sched,
                            const Payloads& pl, bool corrupt_one) {
  const std::size_t n = sched.size();
  std::vector<Outcome> out(n);
  struct Conn {
    net::Client cli;
    std::vector<std::size_t> reqs;  // schedule indices, in send order
    std::atomic<std::size_t> sent{0};
    std::atomic<bool> finished{false};
    std::vector<double> outstanding;
  };
  Conn conns[kConns];
  for (std::size_t i = 0; i < n; ++i) conns[i % kConns].reqs.push_back(i);
  net::Client::ConnectOptions co;
  co.timeout_s = 5.0;
  co.attempts = 3;
  co.io_timeout_s = kIoTimeoutS;
  for (auto& c : conns) c.cli.connect(port, "127.0.0.1", co);

  std::atomic<std::size_t> sent_total{0};
  std::atomic<std::size_t> done_total{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> truncated{false};
  std::atomic<bool> corrupted{!corrupt_one};
  const double t0 = now_s() + 1e-3;

  const auto sender = [&](Conn& c) {
    for (std::size_t j = 0; j < c.reqs.size() && !stop.load(std::memory_order_relaxed); ++j) {
      const std::size_t i = c.reqs[j];
      const Req& r = sched[i];
      sleep_until_s(t0 + r.due);
      const auto inflight = [&] {
        return sent_total.load(std::memory_order_relaxed) -
               done_total.load(std::memory_order_relaxed);
      };
      c.outstanding.push_back(static_cast<double>(inflight()));
      if (!hold_window(inflight)) {
        truncated = true;
        stop = true;
        break;
      }
      out[i].sent = now_s() - t0;
      try {
        c.cli.send_request(r.model, r.model == 0 ? net::Dtype::C32 : net::Dtype::F32,
                           pl.dims[r.model], input_bytes(pl, r),
                           r.high ? net::Qos::High : net::Qos::Normal);
      } catch (const std::exception&) {
        stop = true;
        break;
      }
      sent_total.fetch_add(1, std::memory_order_relaxed);
      c.sent.store(j + 1, std::memory_order_release);
    }
    c.finished.store(true, std::memory_order_release);
  };
  const auto receiver = [&](Conn& c) {
    std::size_t received = 0;
    net::Client::Result res;
    for (;;) {
      const bool fin = c.finished.load(std::memory_order_acquire);
      const std::size_t sent = c.sent.load(std::memory_order_acquire);
      if (received >= sent) {
        if (fin) break;
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      try {
        if (!c.cli.recv_response(res)) break;
      } catch (const std::exception&) {
        break;  // timeout or torn stream: the rest count as lost
      }
      const double t = now_s() - t0;
      ++received;
      const std::uint64_t j = res.head.correlation - 1;  // a fresh Client numbers from 1
      if (j >= c.reqs.size()) continue;
      const std::size_t i = c.reqs[j];
      Outcome& o = out[i];
      o.done = t;
      o.queue_s = res.head.queue_us * 1e-6;
      o.exec_s = res.head.exec_us * 1e-6;
      o.micro_batch = res.head.micro_batch;
      if (res.head.status != net::WireStatus::Ok) {
        o.fate = Fate::BadStatus;
      } else {
        const bool corrupt = !corrupted.exchange(true);
        o.fate = same_bytes(res.payload(), expected_bytes(pl, sched[i]), corrupt)
                     ? Fate::Ok
                     : Fate::WrongPayload;
      }
      done_total.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  for (auto& c : conns) {
    threads.emplace_back(sender, std::ref(c));
    threads.emplace_back(receiver, std::ref(c));
  }
  for (auto& t : threads) t.join();

  std::vector<double> outstanding;
  for (auto& c : conns) {
    const std::size_t sent = c.sent.load();
    for (std::size_t j = 0; j < sent; ++j) {
      Outcome& o = out[c.reqs[j]];
      if (o.fate == Fate::NotSent) o.fate = Fate::Lost;  // sent, never answered
    }
    // Requests whose send was attempted but failed also count as lost.
    if (sent < c.reqs.size() && out[c.reqs[sent]].sent > 0.0 &&
        out[c.reqs[sent]].fate == Fate::NotSent) {
      out[c.reqs[sent]].fate = Fate::Lost;
    }
    outstanding.insert(outstanding.end(), c.outstanding.begin(), c.outstanding.end());
    c.cli.close();
  }
  return summarize(sched, out, outstanding, truncated.load());
}

PhaseStats run_inproc_phase(serve::InferenceServer& srv, const std::vector<Req>& sched,
                            const Payloads& pl) {
  const std::size_t n = sched.size();
  std::vector<Outcome> out(n);
  // Each request gets its own zero-copy output slot.
  std::vector<std::size_t> slot(n);
  std::size_t count[2] = {0, 0};
  for (std::size_t i = 0; i < n; ++i) slot[i] = count[sched[i].model]++;
  std::vector<c32> out1(count[0] * pl.elems[0]);
  std::vector<float> out2(count[1] * pl.elems[1]);

  std::atomic<std::size_t> sent_total{0};
  std::atomic<std::size_t> done_total{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> truncated{false};
  std::vector<double> outstanding[kConns];
  const double t0 = now_s() + 1e-3;

  const auto sender = [&](std::size_t k) {
    for (std::size_t i = k; i < n && !stop.load(std::memory_order_relaxed); i += kConns) {
      const Req& r = sched[i];
      sleep_until_s(t0 + r.due);
      const auto inflight = [&] {
        return sent_total.load(std::memory_order_relaxed) -
               done_total.load(std::memory_order_acquire);
      };
      outstanding[k].push_back(static_cast<double>(inflight()));
      if (!hold_window(inflight)) {
        truncated = true;
        stop = true;
        break;
      }
      out[i].sent = now_s() - t0;
      sent_total.fetch_add(1, std::memory_order_relaxed);
      serve::SubmitOptions so;
      so.priority = r.high ? serve::Priority::High : serve::Priority::Normal;
      auto done = [&out, &done_total, t0, i](serve::InferResponse&& resp) {
        Outcome& o = out[i];
        o.done = now_s() - t0;
        o.fate = resp.status == serve::Status::Ok ? Fate::Ok : Fate::BadStatus;
        o.queue_s = resp.timing.queue_s;
        o.exec_s = resp.timing.exec_s;
        o.micro_batch = static_cast<std::uint32_t>(resp.timing.micro_batch);
        done_total.fetch_add(1, std::memory_order_release);
      };
      if (r.model == 0) {
        srv.submit(0, std::span<const c32>(pl.in1).subspan(r.input * pl.elems[0], pl.elems[0]),
                   std::span<c32>(out1).subspan(slot[i] * pl.elems[0], pl.elems[0]), done, so);
      } else {
        srv.submit_real(
            1, std::span<const float>(pl.in2).subspan(r.input * pl.elems[1], pl.elems[1]),
            std::span<float>(out2).subspan(slot[i] * pl.elems[1], pl.elems[1]), done, so);
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kConns; ++k) threads.emplace_back(sender, k);
  for (auto& t : threads) t.join();
  const double deadline = now_s() + kDrainTimeoutS;
  while (done_total.load(std::memory_order_acquire) < sent_total.load() && now_s() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  if (done_total.load(std::memory_order_acquire) < sent_total.load()) {
    // Callbacks still pending would write into `out` after it is gone.
    srv.drain();
  }

  for (std::size_t i = 0; i < n; ++i) {
    Outcome& o = out[i];
    if (o.fate != Fate::Ok) continue;
    const Req& r = sched[i];
    const auto got = r.model == 0 ? std::as_bytes(std::span<const c32>(out1).subspan(
                                        slot[i] * pl.elems[0], pl.elems[0]))
                                  : std::as_bytes(std::span<const float>(out2).subspan(
                                        slot[i] * pl.elems[1], pl.elems[1]));
    if (!same_bytes(got, expected_bytes(pl, r), false)) o.fate = Fate::WrongPayload;
  }
  std::vector<double> all;
  for (auto& v : outstanding) all.insert(all.end(), v.begin(), v.end());
  return summarize(sched, out, all, truncated.load());
}

}  // namespace perfbench
