// Shared machinery of the loop benchmark: the clock, the span log
// the traced run records around every call into the program's layers, the
// positive-control busy-wait, sample statistics, and the result every
// workload returns.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace loopbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Busy-waits until `ns` nanoseconds have passed (never sleeps, so the core
/// stays as busy as the doubled call kept it).
void spin_for(std::uint64_t ns);

/// Every layer boundary the benchmark times. The names are the span names
/// written to the trace and the names `--double` accepts.
enum class Stage : std::uint32_t {
  kRound,        // bench.round: one closed-loop round (loop)
  kQuery,        // bench.query: one analyst query (offline)
  kDecidePhase,  // bench.decide_phase: deciders spawned..joined (loop)
  kDecide,       // serve.decide: Decider::decide + log_reward
  kDrain,        // serve.drain: DecisionService::drain
  kPublish,      // serve.publish: publish_with / publish, try_reclaim
  kCreate,       // store.create: DatasetWriter construction
  kEncode,       // store.encode: DatasetWriter::add
  kFinish,       // store.finish: DatasetWriter::finish
  kOpen,         // store.open: Dataset::open
  kScan,         // store.scan: Dataset::scan(predicate)
  kScavenge,     // logs.scavenge: logs::scavenge
  kTrain,        // trainer.train: SnapshotTrainer::train_on
  kSave,         // persist.save: SnapshotStore::save_bytes
  kRewardFit,    // core.reward_fit: core::fit_ridge
  kIps,          // core.estimate.ips
  kSnips,        // core.estimate.snips
  kDr,           // core.estimate.dr
  kSwitch,       // core.estimate.switch
  kPlan,         // design.plan: design::plan_logging
  kEvaluate,     // pipeline.evaluate: pipeline::evaluate_candidates
  kNone,         // sentinel: no stage
};
inline constexpr std::size_t kNumStages = static_cast<std::size_t>(Stage::kNone);

const char* stage_name(Stage s);
/// Stage named `name`, or kNone.
Stage stage_from_name(const std::string& name);

/// The stage whose calls the positive control doubles (kNone: none).
extern Stage g_doubled;

/// One call into a layer, or many calls of one kind aggregated into a
/// single record whose `dur_ns` is their summed time (hot calls such as
/// DatasetWriter::add would otherwise need one record per row). `count` is
/// the work the span covers: calls, records or rows, as its stage defines.
struct Span {
  Stage stage = Stage::kNone;
  std::uint32_t parent = 0;  ///< 1-based index of the parent in this log; 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t count = 1;
};

/// Spans of one thread, kept in memory and written out at exit. Parents are
/// always earlier spans of the same log.
struct SpanLog {
  std::vector<Span> spans;

  std::uint32_t open(Stage s, std::uint32_t parent) {
    spans.push_back({s, parent, now_ns(), 0, 1});
    return static_cast<std::uint32_t>(spans.size());
  }
  void close(std::uint32_t token, std::uint64_t count = 1) {
    Span& span = spans[token - 1];
    span.dur_ns = now_ns() - span.start_ns;
    span.count = count;
  }
  std::uint32_t add(Stage s, std::uint32_t parent, std::uint64_t start,
                    std::uint64_t dur, std::uint64_t count) {
    spans.push_back({s, parent, start, dur, count});
    return static_cast<std::uint32_t>(spans.size());
  }
};

/// Times one call into a layer. Records a span when `log` is non-null and,
/// when `stage` is the doubled stage, busy-waits after the call for as long
/// as it took. Reads no clock when neither applies.
class Call {
 public:
  Call(SpanLog* log, Stage stage, std::uint32_t parent = 0)
      : log_(log), stage_(stage) {
    if (log_ != nullptr) {
      token_ = log_->open(stage, parent);
    } else if (stage == g_doubled) {
      start_ = now_ns();
    }
  }
  ~Call() {
    if (log_ != nullptr) {
      log_->close(token_, count_);
      if (stage_ == g_doubled) spin_for(log_->spans[token_ - 1].dur_ns);
    } else if (stage_ == g_doubled) {
      spin_for(now_ns() - start_);
    }
  }
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;

  std::uint32_t token() const { return token_; }
  void set_count(std::uint64_t count) { count_ = count; }

 private:
  SpanLog* log_;
  Stage stage_;
  std::uint32_t token_ = 0;
  std::uint64_t start_ = 0;
  std::uint64_t count_ = 1;
};

/// Per-stage totals over a set of span logs. Self time is a span's duration
/// minus the durations of its direct children.
struct StageTotals {
  double dur_ns = 0;
  double self_ns = 0;
  std::uint64_t count = 0;  ///< work units: Σ Span::count
  std::uint64_t spans = 0;  ///< span records
};
std::array<StageTotals, kNumStages> summarize(
    std::span<const SpanLog* const> logs);

/// Σ duration of the direct children of `root` spans ÷ Σ duration of the
/// roots, over one log: the share of iteration wall time the stage spans
/// account for.
double stage_coverage(const SpanLog& log, Stage root);

/// Writes every span as one JSON object per line.
void write_trace(const std::string& path, std::span<const SpanLog* const> logs);

// ---- statistics -----------------------------------------------------------

/// Both reorder `values` in place.
double median(std::span<double> values);

/// The highest percentile of {50, 75, 90, 95, 99, 99.9, 99.99, 99.999} with
/// at least 10 samples beyond it, and the sample at that rank. Returns
/// {0, 0} for fewer than 20 samples.
struct Tail {
  double percentile = 0;
  double value = 0;
};
Tail tail(std::span<double> values);

/// Pins the calling thread to CPU `cpu` modulo the CPUs the process may
/// use, so busy benchmark threads do not share a CPU or migrate mid-run.
/// Best effort: a refused pin leaves the thread unpinned.
void pin_to_cpu(std::size_t cpu);

/// The largest anonymous resident set (RssAnon: heap and stacks) of this
/// process at the points sample() is called, in MiB. File-backed pages are
/// left out: how many pages of a mapped HLOG part are resident depends on
/// the page-cache folio sizes the kernel picked when the file was written,
/// which moved the whole resident peak (VmHWM) of `offline` by up to 13%
/// between runs of the same code. With the allocator settings main.cpp
/// makes, freed heap memory stays resident, so a sample after each
/// iteration sees the peak of that iteration.
struct PeakAnonRss {
  double mb = 0;
  void sample();
};

/// Minor page faults of this process so far.
std::uint64_t minor_faults();

// ---- results --------------------------------------------------------------

/// One measured metric. Units, output order and the 0 reported for layers a
/// workload never calls come from BENCHMARK.json (run.py applies them).
struct Metric {
  std::string name;
  double value = 0;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Facts about the run printed beside the result (tail percentile used,
  /// sample counts, ...).
  std::vector<std::pair<std::string, double>> info;

  /// Records an output check: a failed one makes the run incorrect and
  /// counts as one failure.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value) {
    metrics.push_back({name, value});
  }
};

/// The set-ups a workload makes during its run, each timed, with the minor
/// page faults it took. setup_s is their median.
struct Setups {
  std::vector<double> seconds;
  std::vector<double> faults;

  /// Calls `set_up` once, records it, and returns what it made.
  template <class F>
  auto time(F&& set_up) {
    const std::uint64_t faults0 = minor_faults();
    const std::uint64_t t0 = now_ns();
    auto made = set_up();
    seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    faults.push_back(static_cast<double>(minor_faults() - faults0));
    return made;
  }

  /// Adds setup_s to the result and the set-up count and median faults to
  /// its info.
  void report(Result& result);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   ///< scratch space the run owns and removes
  std::string trace_out;  ///< where the traced run writes its spans
};

Result run_loop(const Options& options);
Result run_serve(const Options& options);
Result run_offline(const Options& options);

}  // namespace loopbench
