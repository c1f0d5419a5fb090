// Tests for the observability layer: labeled metrics, span nesting,
// exporter round-trips, and registry thread safety.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"

namespace harvest::obs {
namespace {

// --- helpers -------------------------------------------------------------

/// The numeric field `key` of one exported JSON object, read with the
/// repo's JSON reader. NaN when absent or not a number.
double json_field(const std::string& line, const std::string& key) {
  const util::JsonValue object = util::parse_json(line);
  const util::JsonValue* v = object.find(key);
  return v != nullptr && v->as_double()
             ? *v->as_double()
             : std::numeric_limits<double>::quiet_NaN();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

// --- metrics -------------------------------------------------------------

TEST(CounterTest, LabeledSeriesAggregateIndependently) {
  Registry registry;
  registry.counter("requests_total", {{"server", "0"}}).add(1);
  registry.counter("requests_total", {{"server", "0"}}).add(2);
  registry.counter("requests_total", {{"server", "1"}}).add(5);
  registry.counter("requests_total").add(10);

  EXPECT_EQ(registry.size(), 3u);
  EXPECT_DOUBLE_EQ(
      registry.counter("requests_total", {{"server", "0"}}).value(), 3.0);
  EXPECT_DOUBLE_EQ(
      registry.counter("requests_total", {{"server", "1"}}).value(), 5.0);
  EXPECT_DOUBLE_EQ(registry.counter("requests_total").value(), 10.0);
}

TEST(CounterTest, HandlesAreStable) {
  Registry registry;
  Counter& a = registry.counter("c", {{"k", "v"}});
  Counter& b = registry.counter("c", {{"k", "v"}});
  EXPECT_EQ(&a, &b);  // same series, same object
}

TEST(CounterTest, LabelOrderDoesNotSplitSeries) {
  Registry registry;
  registry.counter("c", {{"a", "1"}, {"b", "2"}}).add(1);
  registry.counter("c", {{"b", "2"}, {"a", "1"}}).add(1);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_DOUBLE_EQ(registry.counter("c", {{"a", "1"}, {"b", "2"}}).value(),
                   2.0);
}

TEST(GaugeTest, LastWriteWins) {
  Registry registry;
  registry.gauge("g").set(1.5);
  registry.gauge("g").set(-2.5);
  EXPECT_DOUBLE_EQ(registry.gauge("g").value(), -2.5);
}

TEST(HistogramTest, MomentsAndQuantiles) {
  Registry registry;
  Histogram& h = registry.histogram("latency");
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.p50(), 500, 25);
  EXPECT_NEAR(h.p99(), 990, 20);
}

TEST(RegistryTest, ConcurrentRecordingIsSafe) {
  Registry registry;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; ++i) {
        // Lazy creation races on purpose: every thread resolves the same
        // series and a thread-unique one.
        registry.counter("shared_total").add(1);
        registry.histogram("shared_hist").observe(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(registry.counter("shared_total").value(),
                   kThreads * kPerThread);
  EXPECT_EQ(registry.histogram("shared_hist").count(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

// --- exporters -----------------------------------------------------------

TEST(ExportTest, JsonlRoundTripPreservesValues) {
  Registry registry;
  registry.counter("events_total", {{"kind", "route"}}).add(42);
  registry.gauge("epsilon").set(0.125);
  Histogram& h = registry.histogram("latency_seconds");
  for (int i = 0; i < 100; ++i) h.observe(0.5);

  std::ostringstream out;
  write_jsonl(registry, out);
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u);

  bool saw_counter = false, saw_gauge = false, saw_histogram = false;
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"events_total\"") != std::string::npos) {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(json_field(line, "value"), 42.0);
      EXPECT_NE(line.find("\"kind\":\"route\""), std::string::npos);
    } else if (line.find("\"epsilon\"") != std::string::npos) {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(json_field(line, "value"), 0.125);
    } else if (line.find("\"latency_seconds\"") != std::string::npos) {
      saw_histogram = true;
      EXPECT_DOUBLE_EQ(json_field(line, "count"), 100.0);
      EXPECT_DOUBLE_EQ(json_field(line, "mean"), 0.5);
      EXPECT_DOUBLE_EQ(json_field(line, "p99"), 0.5);
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_histogram);
}

TEST(ExportTest, EmptyHistogramExportsNullNotNan) {
  Registry registry;
  registry.histogram("empty");
  std::ostringstream out;
  write_jsonl(registry, out);
  EXPECT_EQ(out.str().find("nan"), std::string::npos);
  EXPECT_EQ(out.str().find("inf"), std::string::npos);
  EXPECT_NE(out.str().find("null"), std::string::npos);
}

TEST(ExportTest, PrometheusTextDump) {
  Registry registry;
  registry.counter("requests_total", {{"server", "1"}}).add(7);
  registry.histogram("latency").observe(2.0);

  std::ostringstream out;
  write_prometheus(registry, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("requests_total{server=\"1\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency summary"), std::string::npos);
  EXPECT_NE(text.find("latency{quantile=\"0.5\"} 2"), std::string::npos);
  EXPECT_NE(text.find("latency_count 1"), std::string::npos);
}

TEST(ExportTest, JsonEscape) {
  EXPECT_EQ(util::json_escape("plain"), "plain");
  EXPECT_EQ(util::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// --- tracing -------------------------------------------------------------

TEST(TraceTest, NestedSpansRecordParentAndTiming) {
  Tracer tracer(16);
  {
    ScopedSpan outer(tracer, "outer");
    {
      ScopedSpan inner(tracer, "inner");
    }
    {
      ScopedSpan sibling(tracer, "sibling");
    }
  }
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Completion order: inner, sibling, outer.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "sibling");
  EXPECT_EQ(spans[2].name, "outer");

  const SpanRecord& outer = spans[2];
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_EQ(outer.depth, 0);
  for (int i : {0, 1}) {
    EXPECT_EQ(spans[i].parent_id, outer.id);
    EXPECT_EQ(spans[i].depth, 1);
    EXPECT_GE(spans[i].start_us, outer.start_us);
    EXPECT_LE(spans[i].duration_us, outer.duration_us);
    EXPECT_GE(spans[i].duration_us, 0.0);
  }
}

TEST(TraceTest, RingBufferKeepsNewestSpans) {
  Tracer tracer(2);
  { ScopedSpan s(tracer, "first"); }
  { ScopedSpan s(tracer, "second"); }
  { ScopedSpan s(tracer, "third"); }
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "second");
  EXPECT_EQ(spans[1].name, "third");
}

TEST(TraceTest, DisabledTracerRecordsNothing) {
  Tracer tracer(16);
  tracer.set_enabled(false);
  { ScopedSpan s(tracer, "ignored"); }
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(TraceTest, ChromeDumpChildNamesItsParent) {
  Tracer tracer(16);
  {
    ScopedSpan outer(tracer, "pipeline.evaluate");
    ScopedSpan inner(tracer, "pipeline.scavenge");
  }
  std::ostringstream out;
  tracer.recorder().write_chrome_trace(out);
  const util::JsonValue dump = util::parse_json(out.str());
  std::map<std::string, const util::JsonValue*> args_of;
  for (const util::JsonValue& event : dump.find("traceEvents")->items) {
    if (event.find("ph")->text != "X") continue;
    EXPECT_TRUE(event.find("dur")->as_double().has_value());
    args_of[event.find("name")->text] = event.find("args");
  }
  ASSERT_EQ(args_of.size(), 2u);
  const util::JsonValue* outer = args_of.at("pipeline.evaluate");
  const util::JsonValue* inner = args_of.at("pipeline.scavenge");
  ASSERT_TRUE(outer && inner && outer->find("id") && inner->find("parent"));
  ASSERT_TRUE(outer->find("id")->as_uint().has_value());
  EXPECT_EQ(outer->find("parent")->as_uint(), 0u);
  // The child names its parent.
  EXPECT_EQ(inner->find("parent")->as_uint(), outer->find("id")->as_uint());
}

TEST(TraceTest, ClearResets) {
  Tracer tracer(4);
  { ScopedSpan s(tracer, "x"); }
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
}

}  // namespace
}  // namespace harvest::obs
