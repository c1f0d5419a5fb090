#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

namespace loopbench {

Stage g_doubled = Stage::kNone;

namespace {

constexpr std::array<const char*, kNumStages> kStageNames = {
    "bench.round",        "bench.query",          "bench.decide_phase",
    "serve.decide",       "serve.drain",          "serve.publish",
    "store.create",       "store.encode",         "store.finish",
    "store.open",         "store.scan",           "logs.scavenge",
    "trainer.train",      "persist.save",         "core.reward_fit",
    "core.estimate.ips",  "core.estimate.snips",  "core.estimate.dr",
    "core.estimate.switch", "design.plan",        "pipeline.evaluate",
};

}  // namespace

void spin_for(std::uint64_t ns) {
  const std::uint64_t until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

const char* stage_name(Stage s) {
  return s == Stage::kNone ? "none"
                           : kStageNames[static_cast<std::size_t>(s)];
}

Stage stage_from_name(const std::string& name) {
  for (std::size_t i = 0; i < kNumStages; ++i) {
    if (name == kStageNames[i]) return static_cast<Stage>(i);
  }
  return Stage::kNone;
}

std::array<StageTotals, kNumStages> summarize(
    std::span<const SpanLog* const> logs) {
  std::array<StageTotals, kNumStages> totals{};
  for (const SpanLog* log : logs) {
    std::vector<double> child_ns(log->spans.size(), 0.0);
    for (const Span& span : log->spans) {
      if (span.parent != 0) {
        child_ns[span.parent - 1] += static_cast<double>(span.dur_ns);
      }
    }
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const Span& span = log->spans[i];
      StageTotals& t = totals[static_cast<std::size_t>(span.stage)];
      t.dur_ns += static_cast<double>(span.dur_ns);
      t.self_ns += static_cast<double>(span.dur_ns) - child_ns[i];
      t.count += span.count;
      ++t.spans;
    }
  }
  return totals;
}

double stage_coverage(const SpanLog& log, Stage root) {
  double roots = 0, children = 0;
  for (const Span& span : log.spans) {
    if (span.stage == root) {
      roots += static_cast<double>(span.dur_ns);
    } else if (span.parent != 0 &&
               log.spans[span.parent - 1].stage == root) {
      children += static_cast<double>(span.dur_ns);
    }
  }
  return roots > 0 ? children / roots : 0.0;
}

void write_trace(const std::string& path,
                 std::span<const SpanLog* const> logs) {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const auto& spans = logs[t]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << "{\"thread\":" << t << ",\"id\":" << i + 1
          << ",\"parent\":" << s.parent << ",\"name\":\""
          << stage_name(s.stage) << "\",\"start_ns\":" << s.start_ns
          << ",\"dur_ns\":" << s.dur_ns << ",\"count\":" << s.count << "}\n";
    }
  }
  if (!out) throw std::runtime_error("cannot write trace to " + path);
}

double median(std::span<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  const double lo = *std::max_element(values.begin(), values.begin() + mid);
  return (lo + hi) / 2;
}

Tail tail(std::span<double> values) {
  static constexpr double kLadder[] = {0.99999, 0.9999, 0.999, 0.99,
                                       0.95,    0.9,    0.75,  0.5};
  const auto n = static_cast<double>(values.size());
  for (double p : kLadder) {
    const auto rank = static_cast<std::size_t>(std::ceil(p * n - 1e-9));
    if (rank == 0 || values.size() - rank < 10) continue;
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return {p, values[rank - 1]};
  }
  return {};
}

namespace {
// The CPUs the process may use, read once at start-up, before any thread
// pins itself (threads inherit their creator's mask).
const cpu_set_t kAllowedCpus = [] {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
  return set;
}();
}  // namespace

void pin_to_cpu(std::size_t cpu) {
  const int n = CPU_COUNT(&kAllowedCpus);
  if (n <= 0) return;
  std::size_t want = cpu % static_cast<std::size_t>(n);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &kAllowedCpus)) continue;
    if (want-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      return;
    }
  }
}

void PeakAnonRss::sample() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("RssAnon:", 0) == 0) {
      mb = std::max(mb, std::stod(line.substr(8)) / 1024.0);
      return;
    }
  }
}

std::uint64_t minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

void Setups::report(Result& result) {
  result.info.emplace_back("setups", static_cast<double>(seconds.size()));
  result.info.emplace_back("setup_minor_faults", median(faults));
  result.metric("setup_s", median(seconds));
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  ++failed;
  std::fprintf(stderr, "loopbench: check failed: %s\n", what.c_str());
}

}  // namespace loopbench
