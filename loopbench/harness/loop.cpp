// Workload `loop`: the harvest loop closed online, one round at a time.
//
// Each round two decider threads serve kPerThread decisions against the
// current snapshot; the main thread then drains the rings into a fresh
// DatasetWriter, reopens the dataset, scavenges it, retrains, publishes,
// persists the snapshot and reclaims the old one. The next round starts
// only after this one has published (a closed loop), so round turnaround
// is the loop's latency and decisions per round ÷ turnaround its
// throughput.
#include <filesystem>
#include <optional>
#include <thread>

#include "bench.h"
#include "logs/scavenger.h"
#include "store/dataset.h"
#include "world.h"

namespace loopbench {
namespace {

namespace serve = harvest::serve;
namespace store = harvest::store;

constexpr std::size_t kThreads = 2;
constexpr std::size_t kPerThread = 60000;
constexpr std::size_t kPool = 1 << 16;
/// Rounds before timing counts: round 0 serves the uniform snapshot and the
/// first rounds still fault in the allocator's pages.
constexpr std::size_t kWarmRounds = 2;
/// Traced runs alternate untraced and traced blocks of rounds (ABAB), so
/// the trace overhead is measured without an order bias.
constexpr std::size_t kTraceBlock = 4;

/// One decider thread's share of a round.
void serve_share(serve::Decider& decider, const World& world,
                 std::size_t first, SpanLog* log, double& reward_sum) {
  Call call(log, Stage::kDecide);
  call.set_count(kPerThread);
  double sum = 0;
  for (std::size_t i = 0; i < kPerThread; ++i) {
    const std::size_t idx = (first + i * 7) & (kPool - 1);
    const serve::Decision d = decider.decide(world.context(idx));
    const double r = world.reward(idx, d.action);
    decider.log_reward(r);
    sum += r;
  }
  reward_sum = sum;
}

}  // namespace

Result run_loop(const Options& options) {
  Result result;
  const World world = World::make(options.seed, kPool);
  const store::Schema schema = make_schema();
  const harvest::logs::ScavengeSpec spec = make_spec(schema);
  const std::string round_dir = options.work_dir + "/round";
  const std::string snapshot_dir = options.work_dir + "/snapshots";
  const std::string spare_dir = options.work_dir + "/spare-snapshots";

  // ---- set-up: program start-up before the first decision ---------------
  // The stack that serves is started once here; a spare one is started and
  // dropped before every later round, outside the round's clock, so setup_s
  // (the median) samples the host over the whole run, not only its first
  // milliseconds.
  Setups setups;
  auto start_up = [&](const std::string& dir) {
    std::filesystem::remove_all(dir);
    return setups.time([&] {
      return std::make_unique<ServingStack>(options.seed, kPerThread + 1,
                                            kThreads, dir);
    });
  };
  const std::unique_ptr<ServingStack> stack = start_up(snapshot_dir);
  serve::DecisionService& service = *stack->service;
  PeakAnonRss peak_rss;

  SpanLog main_log;
  std::vector<SpanLog> decider_logs(kThreads);
  std::vector<double> latency_ms, throughput, traced_tp, untraced_tp;
  std::vector<double> round_means;
  std::uint64_t rows_seen = 0, rows_harvested = 0, backlog_max = 0;
  std::uint64_t bytes = 0, bytes_rows = 0;
  std::size_t retired_max = 0, traced_rounds = 0;
  std::uint64_t prev_decided = 0;

  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
  for (std::size_t round = 0;
       round < kWarmRounds + 1 || now_ns() < deadline; ++round) {
    const bool traced = options.trace && (round / kTraceBlock) % 2 == 1;
    SpanLog* log = traced ? &main_log : nullptr;
    // The spare start-up comes between rounds, when only the serving stack
    // is live, so its rings reuse the memory the last round freed.
    if (round > 0) start_up(spare_dir);
    std::filesystem::remove_all(round_dir);

    const std::uint64_t start = now_ns();
    const std::uint32_t root = log != nullptr ? log->open(Stage::kRound, 0) : 0;

    // ---- serve ------------------------------------------------------------
    std::vector<double> reward_sums(kThreads);
    {
      Call phase(log, Stage::kDecidePhase, root);
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < kThreads; ++t) {
        const std::size_t first = harvest::util::derive_stream_seed(
                                      options.seed ^ (round + 1), t) &
                                  (kPool - 1);
        threads.emplace_back(serve_share, std::ref(*stack->deciders[t]),
                             std::cref(world), first,
                             traced ? &decider_logs[t] : nullptr,
                             std::ref(reward_sums[t]));
      }
      for (auto& th : threads) th.join();
    }
    double reward_sum = 0;
    for (double r : reward_sums) reward_sum += r;
    round_means.push_back(reward_sum / (kThreads * kPerThread));

    // ---- log the round to HLOG -------------------------------------------
    std::unique_ptr<store::DatasetWriter> writer;
    {
      Call call(log, Stage::kCreate, root);
      writer = std::make_unique<store::DatasetWriter>(round_dir, schema);
    }
    const bool time_encode = traced || g_doubled == Stage::kEncode;
    std::uint64_t encode_ns = 0, drained_digest = 0, drained = 0;
    serve::ServeDrainStats drain_stats;
    {
      Call call(log, Stage::kDrain, root);
      const std::uint64_t drain_start = log != nullptr ? now_ns() : 0;
      drain_stats = service.drain([&](const serve::DecisionRecord& rec) {
        const std::span<const double> ctx(rec.context, rec.dim);
        if (time_encode) {
          const std::uint64_t t0 = now_ns();
          writer->add(rec.time, ctx, rec.action, rec.reward, rec.propensity);
          const std::uint64_t dt = now_ns() - t0;
          encode_ns += dt;
          if (g_doubled == Stage::kEncode) spin_for(dt);
        } else {
          writer->add(rec.time, ctx, rec.action, rec.reward, rec.propensity);
        }
        drained_digest += tuple_digest(ctx, rec.action, rec.reward,
                                       rec.propensity);
        ++drained;
      });
      call.set_count(drained);
      if (log != nullptr) {
        log->add(Stage::kEncode, call.token(), drain_start, encode_ns,
                 drained);
      }
    }
    {
      Call call(log, Stage::kFinish, root);
      writer->finish();
    }

    // ---- scavenge the round's own log and retrain -------------------------
    std::optional<store::Dataset> dataset;
    {
      Call call(log, Stage::kOpen, root);
      dataset.emplace(store::Dataset::open(round_dir));
    }
    const harvest::logs::ScavengeResult harvested = [&] {
      Call call(log, Stage::kScavenge, root);
      harvest::logs::ScavengeResult r = harvest::logs::scavenge(*dataset, spec);
      call.set_count(r.data.size());
      return r;
    }();
    std::string snapshot_bytes;
    std::uint64_t id = 0;
    {
      Call call(log, Stage::kPublish, root);
      id = service.publish_with([&](std::uint64_t next_id) {
        Call train(log, Stage::kTrain, call.token());
        auto snapshot = stack->trainer->train_on(harvested.data, next_id);
        snapshot_bytes = snapshot->serialize();
        return snapshot;
      });
    }
    {
      Call call(log, Stage::kSave, root);
      stack->store->save_bytes(id, snapshot_bytes);
    }
    retired_max = std::max(retired_max, service.retired_count());
    {
      Call call(log, Stage::kPublish, root);
      service.try_reclaim();
    }
    if (log != nullptr) log->close(root);
    const std::uint64_t elapsed = now_ns() - start;

    // ---- checks (outside the round's clock) --------------------------------
    std::uint64_t decided = 0, logged = 0, dropped = 0;
    for (const serve::Decider* d : stack->deciders) {
      decided += d->decided();
      logged += d->logged();
      dropped += d->dropped();
    }
    result.check(logged + dropped == decided, "loop: logged + dropped == decided");
    result.check(decided - prev_decided == kThreads * kPerThread,
                 "loop: every decision of the round was made");
    prev_decided = decided;
    result.check(drained == kThreads * kPerThread &&
                     drain_stats.drained == drained,
                 "loop: drained records == decisions of the round");
    result.check(harvested.data.size() == drained,
                 "loop: scavenged tuple count == drained records");
    std::uint64_t harvested_digest = 0;
    for (const auto& p : harvested.data.points()) {
      double ctx[kDim];
      for (std::size_t d = 0; d < kDim; ++d) ctx[d] = p.context[d];
      harvested_digest += tuple_digest(ctx, p.action, p.reward, p.propensity);
    }
    result.check(harvested_digest == drained_digest,
                 "loop: scavenged tuples digest == drained records digest");
    peak_rss.sample();
    rows_seen += harvested.decisions_seen;
    rows_harvested += harvested.data.size();
    result.failed += harvested.total_dropped();

    if (round >= kWarmRounds) {
      const double tp = kThreads * kPerThread / (elapsed * 1e-9);
      latency_ms.push_back(elapsed * 1e-6);
      throughput.push_back(tp);
      (traced ? traced_tp : untraced_tp).push_back(tp);
    }
    if (traced) {
      ++traced_rounds;
      backlog_max = std::max<std::uint64_t>(backlog_max, drained);
      bytes = dataset->file_bytes();
      bytes_rows = dataset->rows();
    }
  }

  // ---- teardown and whole-run checks --------------------------------------
  service.reclaim_all();
  const std::uint64_t dropped = service.dropped_total();
  const std::uint64_t orphaned = service.orphaned_total();
  result.failed += dropped + orphaned;
  result.check(dropped == 0, "loop: no ring drops");
  result.check(orphaned == 0, "loop: no orphaned rewards");
  result.check(service.swaps() == service.reclaimed(),
               "loop: swaps == reclaimed at teardown");
  result.check(round_means.back() > round_means.front(),
               "loop: final mean reward > round 0 mean reward");
  result.attempted += service.decided_total();
  std::filesystem::remove_all(round_dir);

  result.info.emplace_back("rounds", static_cast<double>(round_means.size()));
  result.info.emplace_back("round0_mean_reward", round_means.front());
  result.info.emplace_back("final_mean_reward", round_means.back());

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

  std::vector<const SpanLog*> logs = {&main_log};
  for (const auto& l : decider_logs) logs.push_back(&l);
  write_trace(options.trace_out, logs);
  const auto s = summarize(logs);
  auto at = [&](Stage st) { return s[static_cast<std::size_t>(st)]; };
  const double rounds = static_cast<double>(traced_rounds);
  auto per = [](double v, double n) { return n > 0 ? v / n : 0.0; };
  result.metric("serve.decide_ns",
                per(at(Stage::kDecide).dur_ns, at(Stage::kDecide).count));
  result.metric("serve.publish_us",
                per(at(Stage::kPublish).self_ns, rounds) * 1e-3);
  result.metric("serve.drain_ns_per_record",
                per(at(Stage::kDrain).self_ns, at(Stage::kDrain).count));
  result.metric("serve.backlog_max_records", static_cast<double>(backlog_max));
  result.metric("serve.retired_max", static_cast<double>(retired_max));
  result.metric("serve.dropped", static_cast<double>(dropped));
  result.metric("serve.orphaned", static_cast<double>(orphaned));
  result.metric("store.encode_ns_per_record",
                per(at(Stage::kEncode).dur_ns, at(Stage::kEncode).count));
  result.metric("store.finish_ms",
                per(at(Stage::kFinish).dur_ns, rounds) * 1e-6);
  result.metric("store.bytes_per_record",
                per(static_cast<double>(bytes),
                    static_cast<double>(bytes_rows)));
  result.metric("store.open_ms",
                per(at(Stage::kOpen).dur_ns, at(Stage::kOpen).spans) * 1e-6);
  result.metric("logs.scavenge_ns_per_row",
                per(at(Stage::kScavenge).dur_ns, at(Stage::kScavenge).count));
  result.metric("logs.harvest_ratio",
                per(static_cast<double>(rows_harvested),
                    static_cast<double>(rows_seen)));
  result.metric("trainer.train_ms",
                per(at(Stage::kTrain).dur_ns, at(Stage::kTrain).spans) * 1e-6);
  result.metric("persist.save_us",
                per(at(Stage::kSave).dur_ns, at(Stage::kSave).spans) * 1e-3);
  result.metric("bench.stage_coverage",
                stage_coverage(main_log, Stage::kRound));
  result.metric("bench.trace_overhead_frac",
                1.0 - per(median(traced_tp), median(untraced_tp)));
  return result;
}

}  // namespace loopbench
