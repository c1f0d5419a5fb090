// Workload `serve`: the decision service at the highest rate it sustains,
// under snapshot churn, with the store, logs and trainer bypassed.
//
// Two decider threads run decide() + log_reward() in bursts of kBurst (a
// call takes ~100 ns, so each burst is timed as a whole: two clock reads per
// ~100 µs instead of per call), one drainer thread drains the rings into a
// counting sink, and the main thread publishes a prebuilt snapshot every
// kPublishPeriodNs and reclaims old ones.
// Busy threads: two deciders and the drainer; the main thread sleeps
// between publishes, except for a spare set-up every kSetupEveryWindows
// windows, made while the deciders wait. A decider starts a burst only when
// its ring has room for the whole burst (credit-based flow control against
// the drainer's published progress), so no record is ever dropped, even
// when the drainer is descheduled; the wait shows up as lower throughput
// instead. Threads are pinned to distinct CPUs.
#include <atomic>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "world.h"

namespace loopbench {
namespace {

namespace serve = harvest::serve;

constexpr std::size_t kThreads = 2;
constexpr std::size_t kBurst = 1024;
constexpr std::size_t kRing = 1 << 17;
constexpr std::size_t kPool = 1 << 16;
/// A spare set-up is made and dropped every kSetupEveryWindows windows (30
/// in a 30-s run), so setup_s, their median with the serving one's,
/// samples the host over the whole run, not only its first milliseconds.
constexpr std::size_t kSetupEveryWindows = 5;
constexpr std::uint64_t kPublishPeriodNs = 4'000'000;
constexpr std::uint64_t kDrainPeriodNs = 100'000;
/// Throughput and the latency tail are taken per window, then their median
/// over the windows is reported.
constexpr std::uint64_t kWindowNs = 200'000'000;
/// Bursts a decider keeps per window (about 1,900 are made at ~100 ns a
/// decision); bursts beyond it are made but not timed.
constexpr std::size_t kMaxBurstsPerWindow = 1 << 14;
/// Every kIntegrityEvery-th burst, a decider checks the snapshot it holds.
constexpr std::uint64_t kIntegrityEvery = 64;
/// Traced runs alternate untraced and traced blocks of windows (ABAB).
constexpr std::size_t kTraceBlockWindows = 5;
/// A decider flushes its aggregated decide span after this many decisions.
constexpr std::uint64_t kSpanDecisions = 1 << 16;

struct Shared {
  std::atomic<bool> stop_deciders{false};
  std::atomic<bool> stop_drainer{false};
  std::atomic<bool> tracing{false};
  /// Set while the main thread makes a spare set-up; deciders park.
  std::atomic<bool> pause{false};
  std::array<std::atomic<bool>, kThreads> parked{};
  std::atomic<std::uint32_t> window{0};
  std::array<std::atomic<std::uint64_t>, kThreads> decided{};
  std::array<std::atomic<std::uint64_t>, kThreads> drained{};
};

/// One decider's per-decision latency over one window.
struct WindowLatency {
  std::uint32_t window = 0;
  std::size_t bursts = 0;
  double median_ns = 0;
  Tail tail;
};

struct DeciderOut {
  /// Per-decision ns of each burst of the current window. Sized and first-
  /// touched in set-up and reused every window, and `windows` is reserved
  /// for the whole run, so the samples take the same memory however many
  /// bursts a run makes.
  std::vector<double> bursts;
  std::uint32_t window = 0;
  std::vector<WindowLatency> windows;
  std::uint64_t untimed_bursts = 0;
  std::uint64_t integrity_checks = 0;
  std::uint64_t integrity_failures = 0;
  std::uint64_t stalls = 0;
  SpanLog log;

  explicit DeciderOut(std::size_t max_windows) {
    bursts.resize(kMaxBurstsPerWindow);
    bursts.clear();
    windows.reserve(max_windows);
  }

  /// Reduces the current window's bursts to their median and tail.
  void close_window() {
    windows.push_back({window, bursts.size(), median(bursts), tail(bursts)});
    bursts.clear();
  }
};

void decider_main(serve::Decider& decider, const World& world,
                  std::size_t first, Shared& shared, std::size_t t,
                  DeciderOut& out) {
  pin_to_cpu(1 + t);
  std::uint64_t done = 0, burst = 0;
  std::uint64_t span_start = 0, span_ns = 0, span_count = 0;
  auto flush_span = [&] {
    if (span_count > 0) {
      out.log.add(Stage::kDecide, 0, span_start, span_ns, span_count);
    }
    span_ns = span_count = 0;
  };
  while (!shared.stop_deciders.load(std::memory_order_relaxed)) {
    if (shared.pause.load(std::memory_order_acquire)) {
      shared.parked[t].store(true, std::memory_order_release);
      while (shared.pause.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      shared.parked[t].store(false, std::memory_order_release);
      continue;
    }
    if (done + kBurst > shared.drained[t].load(std::memory_order_acquire) +
                            kRing) {
      ++out.stalls;
      std::this_thread::yield();
      continue;
    }
    const bool traced = shared.tracing.load(std::memory_order_relaxed);
    const std::uint64_t t0 = now_ns();
    for (std::size_t j = 0; j < kBurst; ++j) {
      const std::size_t idx = (first + (done + j) * 7) & (kPool - 1);
      const serve::Decision d = decider.decide(world.context(idx));
      decider.log_reward(world.reward(idx, d.action));
    }
    const std::uint64_t dt = now_ns() - t0;
    if (traced) {
      if (span_count == 0) span_start = t0;
      span_ns += dt;
      span_count += kBurst;
      if (span_count >= kSpanDecisions) flush_span();
    } else {
      flush_span();
      const std::uint32_t window =
          shared.window.load(std::memory_order_relaxed);
      if (window != out.window) {
        out.close_window();
        out.window = window;
      }
      if (out.bursts.size() < kMaxBurstsPerWindow) {
        out.bursts.push_back(static_cast<double>(dt) / kBurst);
      } else {
        ++out.untimed_bursts;
      }
    }
    if (g_doubled == Stage::kDecide) spin_for(dt);
    done += kBurst;
    shared.decided[t].store(done, std::memory_order_release);
    if (++burst % kIntegrityEvery == 0) {
      const serve::SnapshotRef ref = decider.snapshot();
      ++out.integrity_checks;
      if (!ref->verify_integrity()) ++out.integrity_failures;
    }
  }
  flush_span();
  out.close_window();
}

struct DrainerOut {
  std::uint64_t total = 0;
  std::uint64_t backlog_max = 0;
  SpanLog log;
};

void drainer_main(serve::DecisionService& service, Shared& shared,
                  DrainerOut& out) {
  pin_to_cpu(1 + kThreads);
  std::array<std::uint64_t, kThreads> counts{};
  auto next = std::chrono::steady_clock::now();
  for (;;) {
    const bool last = shared.stop_drainer.load(std::memory_order_acquire);
    const bool traced = shared.tracing.load(std::memory_order_relaxed);
    std::size_t n = 0;
    {
      Call call(traced ? &out.log : nullptr, Stage::kDrain);
      n = service
              .drain([&counts](const serve::DecisionRecord& rec) {
                ++counts[rec.decider];
              })
              .drained;
      call.set_count(n);
    }
    for (std::size_t d = 0; d < kThreads; ++d) {
      shared.drained[d].store(counts[d], std::memory_order_release);
    }
    out.total += n;
    out.backlog_max = std::max<std::uint64_t>(out.backlog_max, n);
    if (last && n == 0) return;
    // A fixed cadence, not "drain again while there is work": concurrent
    // draining slows the deciders (they share the ring counters), so a
    // drainer that keeps up by draining more often settles at a different
    // throughput from run to run.
    next += std::chrono::nanoseconds(kDrainPeriodNs);
    next = std::max(next, std::chrono::steady_clock::now());
    std::this_thread::sleep_until(next);
  }
}

/// The snapshots the publisher swaps in, ids from 2 up: alternately the
/// world's true weights and a perturbed copy, so the greedy action moves.
std::vector<std::unique_ptr<const serve::PolicySnapshot>> build_snapshots(
    const World& world, std::size_t count) {
  std::vector<double> perturbed = world.true_weights;
  for (std::size_t i = 0; i < perturbed.size(); ++i) {
    perturbed[i] += (i % 3 == 0) ? 0.1 : -0.05;
  }
  std::vector<std::unique_ptr<const serve::PolicySnapshot>> snapshots;
  snapshots.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    snapshots.push_back(std::make_unique<const serve::PolicySnapshot>(
        i + 2, kActions, kDim, i % 2 == 0 ? world.true_weights : perturbed,
        0.2));
  }
  return snapshots;
}

}  // namespace

Result run_serve(const Options& options) {
  Result result;
  const World world = World::make(options.seed, kPool);
  const std::string snapshot_dir = options.work_dir + "/snapshots";
  const std::string spare_dir = options.work_dir + "/spare-snapshots";
  const auto run_ns = static_cast<std::uint64_t>(options.seconds * 1e9);
  const std::size_t num_snapshots = run_ns / kPublishPeriodNs + 64;
  const std::size_t max_windows = run_ns / kWindowNs + 2;

  // ---- set-up: start-up plus the snapshots the publisher will swap in ----
  Setups setups;
  auto start_up = [&](const std::string& dir) {
    std::filesystem::remove_all(dir);
    return setups.time([&] {
      auto made =
          std::make_unique<ServingStack>(options.seed, kRing, kThreads, dir);
      return std::make_pair(std::move(made),
                            build_snapshots(world, num_snapshots));
    });
  };
  auto serving = start_up(snapshot_dir);
  const std::unique_ptr<ServingStack>& stack = serving.first;
  auto& snapshots = serving.second;
  std::vector<DeciderOut> decider_out;
  for (std::size_t t = 0; t < kThreads; ++t) {
    decider_out.emplace_back(max_windows);
  }
  serve::DecisionService& service = *stack->service;
  PeakAnonRss peak_rss;

  pin_to_cpu(0);
  Shared shared;
  DrainerOut drainer_out;
  SpanLog main_log;
  std::vector<std::thread> deciders;
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::size_t first =
        harvest::util::derive_stream_seed(options.seed, t) & (kPool - 1);
    deciders.emplace_back(decider_main, std::ref(*stack->deciders[t]),
                          std::cref(world), first, std::ref(shared), t,
                          std::ref(decider_out[t]));
  }
  std::thread drainer(drainer_main, std::ref(service), std::ref(shared),
                      std::ref(drainer_out));

  // ---- publisher + throughput windows (main thread) -----------------------
  std::vector<double> window_tp, traced_tp, untraced_tp;
  std::size_t retired_max = 0, published = 0;
  double traced_wall_ns = 0;
  const std::uint64_t start = now_ns();
  std::uint64_t next_publish = start + kPublishPeriodNs;
  std::uint64_t window_start = start, prev_sum = 0;
  for (std::size_t window = 0;;) {
    const std::uint64_t window_end = window_start + kWindowNs;
    const std::uint64_t wake = std::min(next_publish, window_end);
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(wake - std::min(wake, now_ns())));
    const std::uint64_t now = now_ns();
    if (now >= next_publish && published < snapshots.size()) {
      Call call(shared.tracing.load() ? &main_log : nullptr, Stage::kPublish);
      service.publish(std::move(snapshots[published++]));
      retired_max = std::max(retired_max, service.retired_count());
      service.try_reclaim();
      next_publish += kPublishPeriodNs;
    }
    if (now < window_end) continue;
    std::uint64_t sum = 0;
    for (const auto& d : shared.decided) sum += d.load(std::memory_order_acquire);
    const double tp = static_cast<double>(sum - prev_sum) /
                      (static_cast<double>(now - window_start) * 1e-9);
    const bool traced = shared.tracing.load();
    if (window > 0) {  // the first window still warms caches
      window_tp.push_back(tp);
      (traced ? traced_tp : untraced_tp).push_back(tp);
      if (traced) traced_wall_ns += static_cast<double>(now - window_start);
    }
    prev_sum = sum;
    window_start = now;
    shared.window.store(++window, std::memory_order_relaxed);
    peak_rss.sample();
    if (now - start >= run_ns) break;
    if (window % kSetupEveryWindows == 0) {
      shared.pause.store(true, std::memory_order_release);
      for (const auto& parked : shared.parked) {
        while (!parked.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::microseconds(10));
        }
      }
      start_up(spare_dir);
      shared.pause.store(false, std::memory_order_release);
      // The next window starts after the pause.
      prev_sum = 0;
      for (const auto& d : shared.decided) {
        prev_sum += d.load(std::memory_order_acquire);
      }
      window_start = now_ns();
      next_publish = window_start + kPublishPeriodNs;
    }
    if (options.trace) {
      shared.tracing.store((window / kTraceBlockWindows) % 2 == 1);
    }
  }
  shared.tracing.store(false);
  shared.stop_deciders.store(true);
  for (auto& th : deciders) th.join();
  shared.stop_drainer.store(true, std::memory_order_release);
  drainer.join();

  // ---- teardown and checks ------------------------------------------------
  service.reclaim_all();
  std::uint64_t decided = 0, integrity_checks = 0, integrity_failures = 0,
                stalls = 0, untimed_bursts = 0;
  // Per-decider latency of the complete windows 1..n, in ms; window 0 still
  // warms caches, and bursts after the last window belong to no window.
  std::vector<double> medians, tails, percentiles, counts;
  for (std::size_t t = 0; t < kThreads; ++t) {
    const serve::Decider& d = *stack->deciders[t];
    result.check(d.logged() + d.dropped() == d.decided(),
                 "serve: logged + dropped == decided");
    decided += d.decided();
    integrity_checks += decider_out[t].integrity_checks;
    integrity_failures += decider_out[t].integrity_failures;
    stalls += decider_out[t].stalls;
    untimed_bursts += decider_out[t].untimed_bursts;
    for (const WindowLatency& w : decider_out[t].windows) {
      if (w.window == 0 || w.window > window_tp.size()) continue;
      if (w.tail.percentile == 0) continue;  // too few bursts to have a tail
      medians.push_back(w.median_ns * 1e-6);
      tails.push_back(w.tail.value * 1e-6);
      percentiles.push_back(w.tail.percentile * 100);
      counts.push_back(static_cast<double>(w.bursts));
    }
  }
  const std::uint64_t dropped = service.dropped_total();
  const std::uint64_t orphaned = service.orphaned_total();
  result.failed += dropped + orphaned;
  result.check(dropped == 0, "serve: no ring drops");
  result.check(orphaned == 0, "serve: no orphaned rewards");
  result.check(drainer_out.total == decided,
               "serve: drained records == decisions");
  result.check(integrity_checks > 0 && integrity_failures == 0,
               "serve: verify_integrity() on sampled SnapshotRefs");
  result.check(published > 0 && service.swaps() == published,
               "serve: every prebuilt snapshot published was swapped in");
  result.check(service.swaps() == service.reclaimed(),
               "serve: swaps == reclaimed at teardown");
  result.attempted += decided;
  result.info.emplace_back("publishes", static_cast<double>(published));
  result.info.emplace_back("flow_control_stalls", static_cast<double>(stalls));
  result.info.emplace_back("untimed_bursts",
                           static_cast<double>(untimed_bursts));
  result.info.emplace_back("integrity_checks",
                           static_cast<double>(integrity_checks));

  if (!options.trace) {
    // Per decider and window: the median and the tail of its bursts; the
    // run reports the median of each.
    result.info.emplace_back("windows", static_cast<double>(tails.size()));
    result.info.emplace_back("latency_samples_per_window", median(counts));
    result.info.emplace_back("tail_percentile", median(percentiles));
    setups.report(result);
    result.metric("throughput_per_s", median(window_tp));
    result.metric("latency_ms", median(medians));
    result.metric("tail_latency_ms", median(tails));
    result.metric("peak_rss_mb", peak_rss.mb);
    return result;
  }

  std::vector<const SpanLog*> logs = {&main_log, &drainer_out.log};
  for (const auto& d : decider_out) logs.push_back(&d.log);
  write_trace(options.trace_out, logs);
  const auto s = summarize(logs);
  auto at = [&](Stage st) { return s[static_cast<std::size_t>(st)]; };
  auto per = [](double v, double n) { return n > 0 ? v / n : 0.0; };
  result.metric("serve.decide_ns",
                per(at(Stage::kDecide).dur_ns, at(Stage::kDecide).count));
  result.metric("serve.publish_us",
                per(at(Stage::kPublish).dur_ns, at(Stage::kPublish).spans) *
                    1e-3);
  result.metric("serve.drain_ns_per_record",
                per(at(Stage::kDrain).self_ns, at(Stage::kDrain).count));
  result.metric("serve.backlog_max_records",
                static_cast<double>(drainer_out.backlog_max));
  result.metric("serve.retired_max", static_cast<double>(retired_max));
  result.metric("serve.dropped", static_cast<double>(dropped));
  result.metric("serve.orphaned", static_cast<double>(orphaned));
  result.metric("bench.stage_coverage",
                per(at(Stage::kDecide).dur_ns, kThreads * traced_wall_ns));
  result.metric("bench.trace_overhead_frac",
                1.0 - per(median(traced_tp), median(untraced_tp)));
  return result;
}

}  // namespace loopbench
