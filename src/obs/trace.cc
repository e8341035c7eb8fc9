#include "src/obs/trace.h"

#include "src/util/logging.h"
#include "src/util/strings.h"

namespace pass::obs {

uint64_t TraceCollector::Start(uint64_t parent_id, uint64_t trace_id,
                               std::string_view name, int shard) {
  SpanRecord span;
  span.id = next_id_++;
  span.parent_id = parent_id;
  span.trace_id = trace_id == 0 ? span.id : trace_id;
  span.name.assign(name);
  span.shard = shard;
  span.start_ns = clock_->now();
  spans_.push_back(std::move(span));
  uint32_t index = static_cast<uint32_t>(spans_.size() - 1);
  open_.push_back(index);
  events_.push_back(Event{/*begin=*/true, index});
  return spans_.back().id;
}

uint64_t TraceCollector::StartSpan(std::string_view name, int shard) {
  if (!enabled_) {
    return 0;
  }
  uint64_t parent_id = 0;
  uint64_t trace_id = 0;
  if (!open_.empty()) {
    const SpanRecord& parent = spans_[open_.back()];
    parent_id = parent.id;
    trace_id = parent.trace_id;
  }
  return Start(parent_id, trace_id, name, shard);
}

uint64_t TraceCollector::StartSpan(const TraceContext& ctx,
                                   std::string_view name, int shard) {
  if (!enabled_) {
    return 0;
  }
  return Start(ctx.span_id, ctx.trace_id, name, shard);
}

void TraceCollector::EndSpan(uint64_t id) {
  if (id == 0) {
    return;
  }
  PASS_CHECK(!open_.empty());
  uint32_t index = open_.back();
  // RAII scoping makes span ends LIFO; anything else is a programmer error.
  PASS_CHECK(spans_[index].id == id);
  open_.pop_back();
  spans_[index].end_ns = clock_->now();
  spans_[index].open = false;
  events_.push_back(Event{/*begin=*/false, index});
}

TraceContext TraceCollector::CurrentContext() const {
  if (!enabled_ || open_.empty()) {
    return TraceContext{};
  }
  const SpanRecord& span = spans_[open_.back()];
  return TraceContext{span.trace_id, span.id};
}

std::string TraceCollector::ChromeTraceJson() const {
  // Replaying the event log in recording order keeps every (pid, tid)
  // stream's B/E events balanced and LIFO — what chrome://tracing and
  // tools/check_trace.py both require. Spans still open are skipped (their
  // E does not exist yet); balanced exports need every span closed.
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Event& event : events_) {
    const SpanRecord& span = spans_[event.span];
    if (span.open) {
      continue;
    }
    int tid = span.shard < 0 ? 0 : span.shard + 1;
    if (!first) {
      out += ',';
    }
    first = false;
    out += '\n';
    if (event.begin) {
      out += StrFormat(
          "{\"name\":\"%s\",\"cat\":\"pass\",\"ph\":\"B\",\"ts\":%.3f,"
          "\"pid\":1,\"tid\":%d,\"args\":{\"id\":%llu,\"parent\":%llu,"
          "\"trace\":%llu,\"shard\":%d}}",
          span.name.c_str(), static_cast<double>(span.start_ns) / 1000.0, tid,
          static_cast<unsigned long long>(span.id),
          static_cast<unsigned long long>(span.parent_id),
          static_cast<unsigned long long>(span.trace_id), span.shard);
    } else {
      out += StrFormat(
          "{\"name\":\"%s\",\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,\"tid\":%d}",
          span.name.c_str(), static_cast<double>(span.end_ns) / 1000.0, tid);
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace pass::obs
