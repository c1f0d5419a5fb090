// Workload `offline`: the analyst's path over a fixed-seed HLOG corpus.
//
// The corpus (written before timing; writing it is fixture cost) is a
// multi-part dataset logged by an eps-greedy snapshot with exact
// propensities, whose contexts drift with time. Every query covers the same
// number of rows at a different place in the corpus: it evaluates the
// candidates with IPS through pipeline::evaluate_candidates with the window
// pushed down as a scan predicate, fits the ridge reward model, runs DR,
// SNIPS and SWITCH on the harvested rows and plans the next logging policy.
// Windows start mid-block, so every query decodes the same number of
// blocks and prunes the rest: one query shape, one latency mode.
#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>

#include "bench.h"
#include "core/estimators/direct.h"
#include "core/estimators/ips.h"
#include "core/estimators/switch.h"
#include "core/policies/basic.h"
#include "core/policies/greedy.h"
#include "core/reward_model.h"
#include "design/planner.h"
#include "harvest/pipeline.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "store/dataset.h"
#include "world.h"

namespace loopbench {
namespace {

namespace core = harvest::core;
namespace store = harvest::store;

constexpr std::size_t kRows = 1 << 20;
constexpr std::size_t kRowsPerFile = 1 << 17;  // 8 parts
constexpr std::size_t kBlockRows = store::WriterOptions{}.rows_per_block;
constexpr std::size_t kWindow = 8 * kBlockRows;
/// Window starts: block-aligned plus half a block, so each window decodes 9
/// blocks. kPositions is prime to the stride kQueryStride.
constexpr std::size_t kPositions = (kRows - kWindow) / kBlockRows - 1;
constexpr std::size_t kQueryStride = 61;
constexpr std::size_t kParThreads = 2;
/// Queries before timing counts (page cache, allocator warm-up).
constexpr std::size_t kWarmQueries = 3;
/// Traced runs alternate untraced and traced blocks of queries (ABAB).
constexpr std::size_t kTraceBlock = 8;

store::ScanPredicate window_of(std::size_t position) {
  store::ScanPredicate predicate;
  predicate.min_time = static_cast<double>(position * kBlockRows + kBlockRows / 2);
  predicate.max_time = predicate.min_time + static_cast<double>(kWindow - 1);
  return predicate;
}

/// The fixture: kRows decisions of an eps-greedy logging snapshot whose
/// contexts drift linearly over the corpus, row i logged at time i.
void write_corpus(const std::string& dir, const World& world,
                  std::uint64_t seed) {
  harvest::util::Rng rng(harvest::util::derive_stream_seed(seed, 2000));
  std::vector<double> logging = world.true_weights;
  for (double& w : logging) w += rng.uniform(-0.2, 0.2);
  const harvest::serve::PolicySnapshot snapshot(1, kActions, kDim, logging,
                                                0.2);
  double drift[kDim];
  for (double& d : drift) d = rng.uniform(-0.4, 0.4);
  store::DatasetWriter writer(dir, make_schema(), {}, kRowsPerFile);
  double x[kDim];
  for (std::size_t i = 0; i < kRows; ++i) {
    const double age = static_cast<double>(i) / kRows - 0.5;
    for (std::size_t d = 0; d < kDim; ++d) {
      x[d] = 0.1 + 0.8 * rng.uniform() + drift[d] * age;
    }
    const harvest::serve::Decision dec = snapshot.decide(x, rng);
    const double r = std::clamp(
        world.mean_reward(x, dec.action) + rng.uniform(-0.05, 0.05), 0.0, 1.0);
    writer.add(static_cast<double>(i), x, dec.action, r, dec.propensity);
  }
  writer.finish();
}

/// Rows a full, unfiltered scan finds inside each window position: the
/// reference the predicate path is checked against. Scans part by part so
/// only one part's columns are resident at a time.
std::vector<std::uint64_t> full_scan_window_rows(const store::Dataset& dataset) {
  std::vector<double> times;
  for (const store::Reader& reader : dataset.readers()) {
    const store::ScanResult scan = reader.scan();
    times.insert(times.end(), scan.time.begin(), scan.time.end());
  }
  std::sort(times.begin(), times.end());
  std::vector<std::uint64_t> rows(kPositions);
  for (std::size_t p = 0; p < kPositions; ++p) {
    const store::ScanPredicate w = window_of(p);
    rows[p] = static_cast<std::uint64_t>(
        std::upper_bound(times.begin(), times.end(), w.max_time) -
        std::lower_bound(times.begin(), times.end(), w.min_time));
  }
  return rows;
}

std::vector<double> flatten(const core::RidgeRewardModel& model) {
  std::vector<double> flat;
  for (std::size_t a = 0; a < model.num_actions(); ++a) {
    const auto& row = model.weights(static_cast<core::ActionId>(a));
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

double blocks_pruned_total() {
  return harvest::obs::Registry::global()
      .counter("store_blocks_pruned_total")
      .value();
}

struct QueryOut {
  harvest::pipeline::HarvestReport report;
  core::ExplorationDataset harvested{kActions, {0, 1}};
  std::vector<double> ips, dr;
  harvest::design::PlannerReport plan;
  double pruned = 0;
};

class Analyst {
 public:
  Analyst(const store::Dataset& dataset, const World& world)
      : dataset_(dataset) {
    config_.spec = make_spec(dataset.schema());
    config_.estimator = std::make_shared<core::IpsEstimator>();
    config_.diagnostics_warnings = false;
    config_.obs_label = "loopbench";
    std::vector<std::vector<double>> rows(kActions);
    for (std::size_t a = 0; a < kActions; ++a) {
      rows[a].assign(world.true_weights.begin() + a * (kDim + 1),
                     world.true_weights.begin() + (a + 1) * (kDim + 1));
    }
    candidates_.push_back(
        std::make_shared<core::LinearPolicy>(rows, "target-linear"));
    for (std::size_t a = 0; a < kActions; ++a) {
      candidates_.push_back(std::make_shared<core::ConstantPolicy>(
          kActions, static_cast<core::ActionId>(a)));
    }
  }

  /// One query; spans go to `log` under `root` when it is non-null.
  QueryOut query(std::size_t position, SpanLog* log, std::uint32_t root) {
    QueryOut out;
    const std::uint64_t work = candidates_.size() * kWindow;
    config_.scan_predicate = window_of(position);
    {
      Call call(log, Stage::kEvaluate, root);
      const double pruned0 = blocks_pruned_total();
      out.report = harvest::pipeline::evaluate_candidates(
          dataset_, config_, candidates_, &out.harvested);
      out.pruned = blocks_pruned_total() - pruned0;
    }
    for (const auto& c : out.report.candidates) {
      out.ips.push_back(c.estimate.value);
    }
    std::shared_ptr<const core::RidgeRewardModel> model;
    {
      Call call(log, Stage::kRewardFit, root);
      model = std::make_shared<const core::RidgeRewardModel>(
          core::fit_ridge(out.harvested, 1.0, true));
    }
    estimate(core::DoublyRobustEstimator(model), Stage::kDr, log, root, work,
             out.harvested, &out.dr);
    estimate(core::SnipsEstimator(), Stage::kSnips, log, root, work,
             out.harvested, nullptr);
    estimate(core::SwitchEstimator(model, 0.1), Stage::kSwitch, log, root,
             work, out.harvested, nullptr);
    {
      Call call(log, Stage::kPlan, root);
      out.plan = harvest::design::plan_logging(out.harvested, candidates_,
                                               *model, flatten(*model), kDim);
    }
    return out;
  }

  /// Calls made only in the traced run, to split the evaluate call into its
  /// layers: the predicate scan alone, the scavenge alone, IPS alone.
  void probe(std::size_t position, const core::ExplorationDataset& harvested,
             SpanLog* log, std::uint32_t root) {
    const store::ScanPredicate predicate = window_of(position);
    {
      Call call(log, Stage::kScan, root);
      call.set_count(dataset_.scan(predicate).rows());
    }
    {
      Call call(log, Stage::kScavenge, root);
      call.set_count(
          harvest::logs::scavenge(dataset_, config_.spec, predicate).data.size());
    }
    estimate(core::IpsEstimator(), Stage::kIps, log, root,
             candidates_.size() * harvested.size(), harvested, nullptr);
  }

 private:
  void estimate(const core::OffPolicyEstimator& estimator, Stage stage,
                SpanLog* log, std::uint32_t root, std::uint64_t work,
                const core::ExplorationDataset& data,
                std::vector<double>* values) {
    Call call(log, stage, root);
    call.set_count(work);
    for (const auto& c : candidates_) {
      const double v = estimator.evaluate(data, *c).value;
      if (values != nullptr) values->push_back(v);
    }
  }

  const store::Dataset& dataset_;
  harvest::pipeline::PipelineConfig config_;
  std::vector<core::PolicyPtr> candidates_;
};

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result run_offline(const Options& options) {
  Result result;
  const World world = World::make(options.seed, 0);
  const std::string corpus_dir = options.work_dir + "/corpus";
  write_corpus(corpus_dir, world, options.seed);

  // ---- set-up: open the corpus -------------------------------------------
  // The dataset the queries use is opened once here; it is opened again and
  // dropped after every query, outside the query's clock, so setup_s (the
  // median) samples the host over the whole run, not its first milliseconds.
  SpanLog main_log;
  SpanLog* setup_log = options.trace ? &main_log : nullptr;
  Setups setups;
  auto open_corpus = [&] {
    return setups.time([&] {
      Call call(setup_log, Stage::kOpen);
      return store::Dataset::open(corpus_dir);
    });
  };
  const store::Dataset dataset = open_corpus();
  const std::vector<std::uint64_t> expected = full_scan_window_rows(dataset);
  PeakAnonRss peak_rss;
  peak_rss.sample();

  Analyst analyst(dataset, world);
  std::vector<double> latency_ms, throughput, traced_tp, untraced_tp;
  double pruned = 0, blocks = 0, window_rows = 0, harvested_rows = 0;
  std::size_t query = 0;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
  for (; query < kWarmQueries + 1 || now_ns() < deadline; ++query) {
    const bool traced = options.trace && (query / kTraceBlock) % 2 == 1;
    SpanLog* log = traced ? &main_log : nullptr;
    const std::size_t position = (query * kQueryStride) % kPositions;

    const std::uint32_t root = log != nullptr ? log->open(Stage::kQuery, 0) : 0;
    const std::uint64_t start = now_ns();
    const QueryOut out = analyst.query(position, log, root);
    const std::uint64_t elapsed = now_ns() - start;
    if (log != nullptr) {
      analyst.probe(position, out.harvested, log, root);
      log->close(root);
    }

    const std::uint64_t kept = out.report.decisions_harvested;
    const std::uint64_t quarantined = out.report.decisions_dropped;
    result.check(kept + quarantined == kWindow,
                 "offline: kept + quarantined == rows in the window");
    result.check(out.harvested.size() == expected[position],
                 "offline: window rows == rows a full scan filters to");
    result.check(out.plan.planned_objective <= out.plan.baseline_objective,
                 "offline: planned objective <= baseline objective");
    open_corpus();
    peak_rss.sample();
    result.failed += quarantined;
    result.attempted += kept;

    if (query >= kWarmQueries) {
      const double tp = static_cast<double>(kept) / (elapsed * 1e-9);
      latency_ms.push_back(elapsed * 1e-6);
      throughput.push_back(tp);
      (traced ? traced_tp : untraced_tp).push_back(tp);
    }
    if (traced) {
      pruned += out.pruned;
      blocks += static_cast<double>(dataset.num_blocks());
      window_rows += kWindow;
      harvested_rows += static_cast<double>(kept);
    }
  }

  // ---- check query: IPS and DR bit-identical at par threads 1 and 2 -------
  {
    const QueryOut two = analyst.query(0, nullptr, 0);
    harvest::par::set_default_threads(1);
    const QueryOut one = analyst.query(0, nullptr, 0);
    harvest::par::set_default_threads(kParThreads);
    result.check(bit_identical(one.ips, two.ips) && bit_identical(one.dr, two.dr),
                 "offline: IPS and DR bit-identical at par threads 1 and 2");
  }
  result.info.emplace_back("queries", static_cast<double>(query));
  result.info.emplace_back("window_rows", static_cast<double>(kWindow));

  if (!options.trace) {
    const Tail t = tail(latency_ms);
    result.info.emplace_back("latency_samples",
                             static_cast<double>(latency_ms.size()));
    result.info.emplace_back("tail_percentile", t.percentile * 100);
    setups.report(result);
    result.metric("throughput_per_s", median(throughput));
    result.metric("latency_ms", median(latency_ms));
    result.metric("tail_latency_ms", t.value);
    result.metric("peak_rss_mb", peak_rss.mb);
    return result;
  }

  const SpanLog* logs[] = {&main_log};
  write_trace(options.trace_out, logs);
  const auto s = summarize(logs);
  auto at = [&](Stage st) { return s[static_cast<std::size_t>(st)]; };
  auto per = [](double v, double n) { return n > 0 ? v / n : 0.0; };
  auto per_call_ms = [&](Stage st) {
    return per(at(st).dur_ns, at(st).spans) * 1e-6;
  };
  auto per_unit_ns = [&](Stage st) { return per(at(st).dur_ns, at(st).count); };
  result.metric("store.bytes_per_record",
                per(static_cast<double>(dataset.file_bytes()),
                    static_cast<double>(dataset.rows())));
  result.metric("store.open_ms", per_call_ms(Stage::kOpen));
  result.metric("store.scan_ns_per_row", per_unit_ns(Stage::kScan));
  result.metric("store.blocks_pruned_ratio", per(pruned, blocks));
  result.metric("logs.scavenge_ns_per_row", per_unit_ns(Stage::kScavenge));
  result.metric("logs.harvest_ratio", per(harvested_rows, window_rows));
  result.metric("core.reward_fit_ms", per_call_ms(Stage::kRewardFit));
  result.metric("core.estimate_ns_per_row.ips", per_unit_ns(Stage::kIps));
  result.metric("core.estimate_ns_per_row.snips", per_unit_ns(Stage::kSnips));
  result.metric("core.estimate_ns_per_row.dr", per_unit_ns(Stage::kDr));
  result.metric("core.estimate_ns_per_row.switch",
                per_unit_ns(Stage::kSwitch));
  result.metric("design.plan_ms", per_call_ms(Stage::kPlan));
  result.metric("pipeline.evaluate_ms", per_call_ms(Stage::kEvaluate));
  result.metric("bench.stage_coverage",
                stage_coverage(main_log, Stage::kQuery));
  result.metric("bench.trace_overhead_frac",
                1.0 - per(median(traced_tp), median(untraced_tp)));
  return result;
}

}  // namespace loopbench
