#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double rel_l2(std::span<const float> a, std::span<const float> b) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    num += d * d;
    den += static_cast<double>(b[i]) * b[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  std::printf("metric %-34s %.17g %s\n", name.c_str(), value, unit.c_str());
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  op(ok);
  if (!ok) {
    correct_ = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::invalidate(const std::string& why) {
  valid_ = false;
  std::printf("INVALID RUN: %s\n", why.c_str());
}

void Report::print_result() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct_ ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    // Non-finite values (an empty sample) are not valid JSON numbers.
    if (std::isfinite(m.value)) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", m.name.c_str(),
                  m.value, m.unit.c_str());
    } else {
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}", i ? ", " : "", m.name.c_str(),
                  m.unit.c_str());
    }
  }
  std::printf("}}\n");
}

int Tracer::begin(const char* name) {
  if (!on_) return -1;
  spans_.push_back({name, now_s(), 0.0});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].t1 = now_s();
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_s,end_s\n");
  for (const auto& s : spans_) std::fprintf(f, "%s,%.9f,%.9f\n", s.name.c_str(), s.t0, s.t1);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
