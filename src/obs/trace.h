#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

// TraceCollector: nested spans stamped with sim::Clock nanos.
//
// A span measures one operation on the simulated timeline — a Sync(), one
// replication batch, one federated query hop. Spans nest by stack
// discipline: StartSpan's parent is the innermost open span. Simulated RPCs
// additionally *propagate* trace context: the sender captures
// CurrentContext() (conceptually shipped in the RPC payload) and the
// receiving side opens its span with StartSpan(ctx, ...), so the remote
// apply links to the batch that carried it even though no call stack
// connects them. One Sync() or one federated closure therefore renders as a
// single connected tree: parent span + per-shard children.
//
// Recording never advances the clock — tracing is free in simulated time by
// construction (the fig7 bench gates this at exactly 0 ns). When disabled
// (the default), StartSpan returns 0 and records nothing, so the wall-clock
// cost of an un-traced run is one branch per site.
//
// The Chrome exporter emits trace-event JSON ("B"/"E" duration events, ts in
// sim-clock microseconds) loadable in chrome://tracing or Perfetto. Shards
// map to tids, so per-shard children render on per-shard tracks. Timestamps
// are sim time, so the export is byte-deterministic for a given seed.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/clock.h"

namespace pass::obs {

// What an RPC payload carries: enough to parent the remote span.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool valid() const { return span_id != 0; }
};

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent_id = 0;  // 0: a root span
  uint64_t trace_id = 0;   // id of the root of this span's tree
  std::string name;
  int shard = -1;  // -1: not shard-specific
  sim::Nanos start_ns = 0;
  sim::Nanos end_ns = 0;
  bool open = true;
};

class TraceCollector {
 public:
  explicit TraceCollector(const sim::Clock* clock) : clock_(clock) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Returns the span id, or 0 when disabled (all other calls ignore id 0).
  uint64_t StartSpan(std::string_view name, int shard = -1);
  // Parent from a propagated context instead of the open-span stack.
  uint64_t StartSpan(const TraceContext& ctx, std::string_view name,
                     int shard = -1);
  void EndSpan(uint64_t id);

  // Context of the innermost open span (invalid at top level).
  TraceContext CurrentContext() const;

  const std::vector<SpanRecord>& spans() const { return spans_; }
  size_t open_spans() const { return open_.size(); }

  std::string ChromeTraceJson() const;

 private:
  uint64_t Start(uint64_t parent_id, uint64_t trace_id, std::string_view name,
                 int shard);

  // begin/end in recording order — exactly the LIFO order the exporter
  // must replay for balanced B/E events.
  struct Event {
    bool begin = false;
    uint32_t span = 0;  // index into spans_
  };

  const sim::Clock* clock_;
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<Event> events_;
  std::vector<uint32_t> open_;  // stack of indexes into spans_
  uint64_t next_id_ = 1;
};

// RAII span. A null collector (observability not wired) or a disabled one
// makes every operation a no-op.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(TraceCollector* collector, std::string_view name, int shard = -1)
      : collector_(collector),
        id_(collector == nullptr ? 0 : collector->StartSpan(name, shard)) {}
  ScopedSpan(TraceCollector* collector, const TraceContext& ctx,
             std::string_view name, int shard = -1)
      : collector_(collector),
        id_(collector == nullptr ? 0 : collector->StartSpan(ctx, name, shard)) {
  }
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // End early (idempotent); the destructor is then a no-op.
  void End() {
    if (id_ != 0) {
      collector_->EndSpan(id_);
      id_ = 0;
    }
  }

  uint64_t id() const { return id_; }

 private:
  TraceCollector* collector_ = nullptr;
  uint64_t id_ = 0;
};

}  // namespace pass::obs

#endif  // SRC_OBS_TRACE_H_
