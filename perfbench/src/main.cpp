// tfno_perfbench: one workload of the TurboFNO benchmark per invocation.
//
//   tfno_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--span-dir <dir>] [--source-id <id>] [--fault output|reference]
//
// Prints a host fingerprint, one "metric <name> <value> <unit>" line per
// metric, and as its last line a JSON object {correct, attempted, failed,
// metrics}.  Exit status: 0 on success, 1 when a correctness check failed,
// 2 on a usage or runtime error, 3 when the measurement is invalid (the
// load generator fell behind or the backlog grew at a fixed rate; no result
// line is printed).  Normally driven by perfbench/run.py.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "runtime/parallel.hpp"
#include "tensor/simd.hpp"

namespace {

std::string read_first_line(const char* path) {
  std::ifstream f(path);
  std::string line;
  if (!f || !std::getline(f, line)) return "unreadable";
  return line;
}

long cache_kib(int name) {
  const long v = sysconf(name);
  return v > 0 ? v / 1024 : 0;
}

void print_fingerprint(const std::string& source_id) {
  std::printf(
      "fingerprint {\"nproc\": %u, \"l1d_kib\": %ld, \"l2_kib\": %ld, \"l3_kib\": %ld, "
      "\"governor\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", \"simd\": \"%s\", "
      "\"openmp\": %s, \"source\": \"%s\"}\n",
      std::thread::hardware_concurrency(), cache_kib(_SC_LEVEL1_DCACHE_SIZE),
      cache_kib(_SC_LEVEL2_CACHE_SIZE), cache_kib(_SC_LEVEL3_CACHE_SIZE),
      read_first_line("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor").c_str(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, turbofno::simd::active_backend(),
      turbofno::runtime::has_openmp() ? "true" : "false", source_id.c_str());
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tfno_perfbench: %s\nusage: tfno_perfbench --workload "
               "<fno1d_burgers|fno2d_vorticity_real|serve_open_mixed> --seed <n> --seconds <s> "
               "--trace <0|1> [--span-dir <dir>] [--source-id <id>] [--fault output|reference]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--span-dir") {
      args.span_dir = v;
    } else if (k == "--source-id") {
      source_id = v;
    } else if (k == "--fault") {
      args.fault = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (args.seconds <= 0.0) usage("--seconds must be positive");

  print_fingerprint(source_id);
  std::printf("config workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  perfbench::Report rep;
  perfbench::Tracer tr;
  tr.enable(args.trace);
  try {
    if (args.workload == "fno1d_burgers" || args.workload == "fno2d_vorticity_real") {
      perfbench::run_offline(args, rep, tr);
    } else if (args.workload == "serve_open_mixed") {
      perfbench::run_serving(args, rep, tr);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tfno_perfbench: %s\n", e.what());
    return 2;
  }
  const auto attempted = std::max<std::uint64_t>(1, rep.attempted());
  rep.metric("error_rate", static_cast<double>(rep.failed()) / static_cast<double>(attempted),
             "fraction");
  rep.metric("peak_rss_mib", perfbench::peak_rss_mib(), "MiB");
  if (args.trace && !args.span_dir.empty()) {
    const std::string path = args.span_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".csv";
    if (!tr.write_csv(path)) std::printf("note: cannot write %s\n", path.c_str());
  }
  std::printf("config runtime_threads_at_exit=%d attempted=%llu failed=%llu\n",
              turbofno::runtime::thread_count(), static_cast<unsigned long long>(rep.attempted()),
              static_cast<unsigned long long>(rep.failed()));
  if (!rep.valid()) return 3;
  rep.print_result();
  std::fflush(stdout);
  return rep.correct() ? 0 : 1;
}
