// Shared vocabulary of the TurboFNO benchmark program: the metric report,
// sample statistics, the seeded RNG, the span recorder of the traced mode,
// and the entry points of each workload family.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace perfbench {

/// Monotonic seconds since an arbitrary process-wide origin.
inline double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; NaN when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Relative L2 error ||a - b|| / ||b|| (||a - b|| when b is all zero).
double rel_l2(std::span<const float> a, std::span<const float> b);

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mib();

/// splitmix64: a small, fully specified generator, so a seed produces the
/// same inputs on every standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Metric sink and correctness ledger of one run.  Every metric is printed
/// as it is produced ("metric <name> <value> <unit>"); the final line is the
/// JSON result object run.py forwards.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records one attempted operation; a false `ok` counts it as failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A correctness check: a failure is also a failed operation and makes
  /// the run incorrect (non-zero exit).
  void check(bool ok, const std::string& what);
  /// A run whose measurement cannot be trusted (e.g. the load generator
  /// fell behind): no result is printed and the exit code is non-zero.
  void invalidate(const std::string& why);
  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] bool valid() const noexcept { return valid_; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// Prints the final JSON result line.
  void print_result() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  bool valid_ = true;
};

/// Span recorder of the traced mode: one span per call into a layer, kept
/// in memory and written out as CSV when the run ends.  Disabled, begin()
/// and end() do nothing.
class Tracer {
 public:
  void enable(bool on) { on_ = on; }
  int begin(const char* name);
  void end(int id);
  /// Writes name,start_s,end_s rows; false if the file cannot open.
  bool write_csv(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double t0;
    double t1;
  };
  bool on_ = false;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Command-line settings shared by every workload.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_dir;     // where the traced mode writes its span CSV
  std::string fault;        // deliberate fault for the self-test ("" = none)
};

/// Fault injection of the self-test: corrupts one output of the named stage
/// ("output": a timed model or served output; "reference": an fft/gemm
/// probe output) before its correctness check.
inline bool fault_is(const RunArgs& a, const char* what) { return a.fault == what; }

void run_offline(const RunArgs& args, Report& rep, Tracer& tr);
void run_serving(const RunArgs& args, Report& rep, Tracer& tr);

/// Traced-mode rows a workload family measures for the other one, so every
/// traced run reports every per-layer metric: the serve/net/shard/loadgen
/// rows on the serving models (phases of `phase_s` seconds per rate) ...
void probe_serving_layers(const RunArgs& args, Report& rep, Tracer& tr, double phase_s);

/// A model a workload runs and the batch it runs it at.  2D models run the
/// real lane (Session::run_real on real fields), 1D models the complex lane:
/// that is what the offline workloads and the serving models use.
struct ModelCase {
  bool is_2d = false;
  turbofno::core::Fno1dConfig c1;
  turbofno::core::Fno2dConfig c2;
  std::size_t batch = 1;
};

/// ... and the fft/gemm/fused/core/runtime/roofline rows of one model case
/// at the runtime thread count currently set.
void probe_model_layers(const ModelCase& mc, const RunArgs& args, Report& rep, Tracer& tr);

}  // namespace perfbench
