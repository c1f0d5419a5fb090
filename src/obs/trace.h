// Lightweight span tracing for the harvest pipeline: scoped RAII timers
// with parent/child nesting. Spans wrap coarse stages (scavenge, infer,
// estimate, train, deploy rounds) and are recorded through the lock-free
// flight recorder (recorder.h), whose Chrome trace dump carries each span's
// id and parent as args.id/args.parent. Per-request use is allowed, but
// prefer raw RecSpan/emit_instant at true hot-path sites, which skip the
// per-span name intern and id bookkeeping this API keeps.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/recorder.h"

namespace harvest::obs {

/// One finished span. `parent_id` 0 means a root span. `start_us` is
/// microseconds since the underlying recorder's epoch (steady clock).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;
  std::string name;
  double start_us = 0;
  double duration_us = 0;
  int depth = 0;  ///< nesting depth at completion (root = 0)
};

/// Span collector, now a facade over the flight recorder: completion emits
/// one kScopeSpan event on the calling thread's lock-free ring; snapshot()
/// drains and reassembles SpanRecords in completion order. A local Tracer
/// owns a private Recorder whose bounded trace keeps the newest `capacity`
/// events; Tracer::global() records into Recorder::global().
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 4096);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Completed spans, oldest first (at most `capacity` retained).
  std::vector<SpanRecord> snapshot() const;

  void clear();

  std::size_t capacity() const { return capacity_; }

  /// The recorder spans are emitted into (the process recorder for
  /// Tracer::global(), a private one for local instances).
  Recorder& recorder() { return *recorder_; }

  /// The process-wide tracer instrumented code reports to.
  static Tracer& global();

 private:
  friend class ScopedSpan;

  /// Wraps Recorder::global() instead of owning a private recorder.
  struct GlobalTag {};
  explicit Tracer(GlobalTag);

  void complete(std::uint32_t name_id, std::uint64_t id,
                std::uint64_t parent_id, int depth, std::uint64_t start_ns,
                std::uint64_t dur_ns);

  bool enabled_ = true;
  std::size_t capacity_;
  std::unique_ptr<Recorder> owned_;  // null for the global facade
  Recorder* recorder_;
};

/// RAII span: opens on construction, records into the tracer on
/// destruction. Nesting is inferred from construction order within a
/// thread — a span constructed while another is open becomes its child.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name);
  /// Convenience: spans against the global tracer.
  explicit ScopedSpan(std::string name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;  // null when the tracer was disabled at construction
  std::uint32_t name_id_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t start_ns_ = 0;
  int depth_ = 0;
};

}  // namespace harvest::obs
