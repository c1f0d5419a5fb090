// loopbench: runs one workload of the harvest-loop benchmark and
// prints, as its last three stdout lines, the environment, facts about the
// run, and the result:
//
//   {"env": {...}}
//   {"info": {...}}
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The metrics map names to bare values: run.py adds the units from
// BENCHMARK.json.
//
// Usage:
//   loopbench --workload loop|serve|offline --seed N --seconds S
//                    --trace 0|1 --work-dir DIR --trace-out FILE
//                    [--double STAGE] [--git-describe TEXT]
//
// --trace 1 reports the per-layer metrics (from spans recorded around each
// call into the program) instead of the end-to-end ones, and writes the
// spans to --trace-out. --double STAGE is the positive control: after every
// call of that stage the benchmark busy-waits as long as the call took. The
// run owns --work-dir and removes it on exit.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <malloc.h>
#include <string>
#include <thread>

#include "bench.h"
#include "par/thread_pool.h"
#include "store/crc32c.h"

namespace {

using namespace loopbench;

constexpr std::size_t kParThreads = 2;

#ifndef LOOPBENCH_BUILD_TYPE
#define LOOPBENCH_BUILD_TYPE "unknown"
#endif

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Σ of all CPU time ticks and the steal ticks in /proc/stat: the share of
/// time the hypervisor ran something else on the guest's CPUs.
std::pair<double, double> cpu_and_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int field = 0; field < 8 && (stat >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {total, steal};
}

int usage(const char* why) {
  std::fprintf(stderr,
               "loopbench: %s\nusage: loopbench --workload "
               "loop|serve|offline --seed N --seconds S --trace 0|1 "
               "--work-dir DIR --trace-out FILE [--double STAGE] "
               "[--git-describe TEXT]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return usage("bad arguments");
    args[key.substr(2)] = argv[++i];
  }
  Options options;
  try {
    options.workload = args.at("workload");
    options.seed = std::stoull(args.at("seed"));
    options.seconds = std::stod(args.at("seconds"));
    options.trace = std::stoi(args.at("trace")) != 0;
    options.work_dir = args.at("work-dir");
    options.trace_out = args.at("trace-out");
  } catch (const std::exception&) {
    return usage("missing or malformed argument");
  }
  if (!(options.seconds > 0)) return usage("--seconds must be positive");
  if (args.count("double") != 0) {
    g_doubled = stage_from_name(args["double"]);
    if (g_doubled == Stage::kNone) return usage("unknown --double stage");
  }
  Result (*run)(const Options&) = nullptr;
  if (options.workload == "loop") run = run_loop;
  if (options.workload == "serve") run = run_serve;
  if (options.workload == "offline") run = run_offline;
  if (run == nullptr) return usage("unknown workload");

  // Fix glibc's allocator thresholds at the largest values its dynamic
  // adjustment reaches: when a program frees an mmap-ed block, glibc raises
  // the mmap threshold to that block's size (at most 32 MiB on 64-bit) and
  // the trim threshold to twice that. With glibc's defaults the loop's
  // heap is trimmed and faulted in again every round: on a 4-vCPU KVM guest
  // its median set-up took 1,882 minor faults and 9.5 ms instead of 0 and
  // 3.9 ms, and its rounds ran 14% slower, while a fresh page fault there
  // cost 1 to 4 µs by the hour. With these values every set-up after the
  // first reuses pages already faulted in (the `setup_minor_faults` info
  // field), so setup_s and the rounds measure the program's own work
  // without page-fault cost.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  // One allocator arena for all threads. With one per thread, memory a par
  // worker freed could only be reused by that worker, so the peak depended
  // on which thread ran which shard: offline's anonymous peak read 28 MB in
  // runs where the host took CPU time from the worker and 33 MB otherwise.
  // The hot paths measured here (decide, drain) do not allocate.
  mallopt(M_ARENA_MAX, 1);
  harvest::par::set_default_threads(kParThreads);
  std::printf(
      "{\"env\": {\"nproc\": %u, \"build_type\": %s, \"compiler\": %s, "
      "\"git_describe\": %s, \"crc32c_backend\": %s, \"par_threads\": %zu, "
      "\"seed\": %llu, \"workload\": %s, \"trace\": %d, \"double\": %s}}\n",
      std::thread::hardware_concurrency(),
      json_string(LOOPBENCH_BUILD_TYPE).c_str(),
      json_string("g++ " __VERSION__).c_str(),
      json_string(args.count("git-describe") != 0 ? args["git-describe"]
                                                  : "unknown")
          .c_str(),
      json_string(std::string(harvest::store::crc32c_backend())).c_str(),
      harvest::par::default_threads(),
      static_cast<unsigned long long>(options.seed),
      json_string(options.workload).c_str(), options.trace ? 1 : 0,
      json_string(stage_name(g_doubled)).c_str());
  std::fflush(stdout);

  Result result;
  const auto [total0, steal0] = cpu_and_steal_ticks();
  try {
    std::filesystem::remove_all(options.work_dir);
    std::filesystem::create_directories(options.work_dir);
    result = run(options);
    std::filesystem::remove_all(options.work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loopbench: %s\n", e.what());
    std::error_code ec;
    std::filesystem::remove_all(options.work_dir, ec);
    return 1;
  }

  const auto [total1, steal1] = cpu_and_steal_ticks();
  result.info.emplace_back("host_steal_share",
                           total1 > total0
                               ? (steal1 - steal0) / (total1 - total0)
                               : 0.0);
  std::string info = "{\"info\": {";
  for (std::size_t i = 0; i < result.info.size(); ++i) {
    info += (i ? ", " : "") + json_string(result.info[i].first) + ": " +
            json_number(result.info[i].second);
  }
  std::printf("%s}}\n", info.c_str());

  std::string metrics;
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (!std::isfinite(m.value)) {
      result.check(false, "metric " + m.name + " is not finite");
      continue;
    }
    metrics += (metrics.empty() ? "" : ", ") + json_string(m.name) + ": " +
               json_number(m.value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
