#include "obs/trace.h"

#include <algorithm>

namespace harvest::obs {

namespace {

/// Per-thread open-span state: the would-be parent of the next span.
/// Shared across tracers, as before the recorder migration — nesting is a
/// property of the thread's call stack, not of any one tracer.
struct ThreadSpanState {
  std::uint64_t current_parent = 0;
  int depth = 0;
};

ThreadSpanState& thread_state() {
  thread_local ThreadSpanState state;
  return state;
}

}  // namespace

Tracer::Tracer(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  Recorder::Options options;
  options.trace_capacity = capacity_;
  // Local tracers are test/tool scoped: a modest ring keeps allocation small
  // while self-drain guarantees nothing is lost past it.
  options.ring_capacity = 1 << 10;
  options.self_drain = true;
  owned_ = std::make_unique<Recorder>(options);
  recorder_ = owned_.get();
}

Tracer::Tracer(GlobalTag)
    : capacity_(Recorder::global().trace_capacity()),
      recorder_(&Recorder::global()) {}

std::vector<SpanRecord> Tracer::snapshot() const {
  const std::vector<Event> events = recorder_->snapshot_events();
  std::vector<SpanRecord> out;
  std::vector<std::uint64_t> end_ns;  // completion-time sort key
  out.reserve(events.size());
  for (const Event& e : events) {
    if (e.kind != EventKind::kScopeSpan) continue;
    SpanRecord record;
    record.id = e.a;
    record.parent_id = e.b;
    record.name = std::string(recorder_->name_of(e.name));
    record.start_us = static_cast<double>(e.ts_ns) / 1000.0;
    record.duration_us = static_cast<double>(e.dur_ns) / 1000.0;
    record.depth = e.depth;
    out.push_back(std::move(record));
    end_ns.push_back(e.ts_ns + e.dur_ns);
  }
  // Rings drain per thread, so the merged trace interleaves threads by
  // drain batch; restore global completion order. Stable: within a thread
  // the drained order already is completion order, which breaks ties.
  std::vector<std::size_t> order(out.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return end_ns[x] < end_ns[y];
                   });
  std::vector<SpanRecord> sorted;
  sorted.reserve(out.size());
  for (const std::size_t i : order) sorted.push_back(std::move(out[i]));
  return sorted;
}

void Tracer::clear() { recorder_->reset(); }

void Tracer::complete(std::uint32_t name_id, std::uint64_t id,
                      std::uint64_t parent_id, int depth,
                      std::uint64_t start_ns, std::uint64_t dur_ns) {
  Event e;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns;
  e.a = id;
  e.b = parent_id;
  e.name = name_id;
  e.kind = EventKind::kScopeSpan;
  e.depth = static_cast<std::uint8_t>(std::min(depth, 255));
  recorder_->emit(e);
}

Tracer& Tracer::global() {
  static Tracer* instance = new Tracer(GlobalTag{});  // leaked
  return *instance;
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string name)
    : tracer_(tracer.enabled() && tracer.recorder_->enabled() ? &tracer
                                                              : nullptr) {
  if (!tracer_) return;
  ThreadSpanState& state = thread_state();
  name_id_ = tracer_->recorder_->intern(name);
  id_ = tracer_->recorder_->next_span_id();
  parent_id_ = state.current_parent;
  depth_ = state.depth;
  start_ns_ = tracer_->recorder_->now_ns();
  saved_parent_ = state.current_parent;
  state.current_parent = id_;
  ++state.depth;
}

ScopedSpan::ScopedSpan(std::string name)
    : ScopedSpan(Tracer::global(), std::move(name)) {}

ScopedSpan::~ScopedSpan() {
  if (!tracer_) return;
  ThreadSpanState& state = thread_state();
  state.current_parent = saved_parent_;
  --state.depth;
  tracer_->complete(name_id_, id_, parent_id_, depth_, start_ns_,
                    tracer_->recorder_->now_ns() - start_ns_);
}

}  // namespace harvest::obs
