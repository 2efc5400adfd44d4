#include "obs/trace.hpp"

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace mocc::obs {

std::string_view to_string(TraceEventType type) {
  switch (type) {
    case TraceEventType::kMessageSend: return "message_send";
    case TraceEventType::kMessageDeliver: return "message_deliver";
    case TraceEventType::kMOpInvoke: return "mop_invoke";
    case TraceEventType::kMOpRespond: return "mop_respond";
    case TraceEventType::kLockAcquire: return "lock_acquire";
    case TraceEventType::kLockRelease: return "lock_release";
    case TraceEventType::kAbcastSequence: return "abcast_sequence";
    case TraceEventType::kFaultDrop: return "fault_drop";
    case TraceEventType::kFaultDuplicate: return "fault_duplicate";
    case TraceEventType::kFaultDelay: return "fault_delay";
    case TraceEventType::kFaultCrashDiscard: return "fault_crash_discard";
    case TraceEventType::kLinkRetransmit: return "link_retransmit";
    case TraceEventType::kLinkDuplicate: return "link_duplicate";
    case TraceEventType::kLinkExhausted: return "link_exhausted";
    case TraceEventType::kOpRead: return "op_read";
    case TraceEventType::kOpWrite: return "op_write";
    case TraceEventType::kBacklogSample: return "backlog_sample";
    case TraceEventType::kBatchAssign: return "batch_assign";
    case TraceEventType::kBatchFlush: return "batch_flush";
    case TraceEventType::kExecCommit: return "exec_commit";
    case TraceEventType::kExecAbort: return "exec_abort";
  }
  MOCC_ASSERT_MSG(false, "unknown trace event type");
  return "unknown";
}

std::string_view to_string(SpanType type) {
  switch (type) {
    case SpanType::kMOp: return "mop";
    case SpanType::kAbcastAgree: return "abcast_agree";
    case SpanType::kLockWait: return "lock_wait";
    case SpanType::kNetHop: return "net_hop";
    case SpanType::kRetransmit: return "retransmit";
  }
  MOCC_ASSERT_MSG(false, "unknown span type");
  return "unknown";
}

RingBufferSink::RingBufferSink(std::size_t capacity) : capacity_(capacity) {
  MOCC_ASSERT_MSG(capacity > 0, "ring buffer needs capacity >= 1");
}

void RingBufferSink::on_event(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  ring_[next_] = event;
  next_ = (next_ + 1) % capacity_;
}

void RingBufferSink::on_span(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  ++span_total_;
  if (span_ring_.size() < capacity_) {
    span_ring_.push_back(span);
    return;
  }
  span_ring_[span_next_] = span;
  span_next_ = (span_next_ + 1) % capacity_;
}

std::vector<TraceEvent> RingBufferSink::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // next_ is the oldest slot once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<Span> RingBufferSink::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.reserve(span_ring_.size());
  for (std::size_t i = 0; i < span_ring_.size(); ++i) {
    out.push_back(span_ring_[(span_next_ + i) % span_ring_.size()]);
  }
  return out;
}

std::uint64_t RingBufferSink::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::uint64_t RingBufferSink::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ - ring_.size();
}

std::uint64_t RingBufferSink::spans_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return span_total_;
}

std::uint64_t RingBufferSink::spans_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return span_total_ - span_ring_.size();
}

void RingBufferSink::export_metrics(Registry& registry) const {
  std::lock_guard<std::mutex> lock(mu_);
  registry.counter("trace_events_total").set(total_);
  registry.counter("trace_events_dropped").set(total_ - ring_.size());
  registry.counter("trace_spans_total").set(span_total_);
  registry.counter("trace_spans_dropped").set(span_total_ - span_ring_.size());
}

void RingBufferSink::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  total_ = 0;
  span_ring_.clear();
  span_next_ = 0;
  span_total_ = 0;
}

void write_jsonl(std::ostream& out, const std::vector<TraceEvent>& events) {
  for (const TraceEvent& event : events) {
    JsonWriter json(out);
    json.begin_object();
    json.field("type", to_string(event.type));
    json.field("t", event.time);
    json.field("node", event.node);
    json.field("peer", event.peer);
    json.field("kind", event.kind);
    json.field("id", event.id);
    json.field("arg", event.arg);
    json.end_object();
    out << '\n';
  }
}

void write_jsonl(std::ostream& out, const std::vector<Span>& spans) {
  for (const Span& span : spans) {
    JsonWriter json(out);
    json.begin_object();
    json.field("type", std::string_view("span"));
    json.field("span", to_string(span.type));
    json.field("trace", span.trace_id);
    json.field("sid", span.span_id);
    json.field("parent", span.parent_span);
    json.field("begin", span.begin);
    json.field("end", span.end);
    json.field("node", span.node);
    json.field("peer", span.peer);
    json.field("kind", span.kind);
    json.field("id", span.id);
    json.field("arg", span.arg);
    json.end_object();
    out << '\n';
  }
}

void write_trace_jsonl(std::ostream& out, const RingBufferSink& sink) {
  {
    JsonWriter json(out);
    json.begin_object();
    json.field("type", std::string_view("header"));
    json.field("events_total", sink.total());
    json.field("events_dropped", sink.dropped());
    json.field("spans_total", sink.spans_total());
    json.field("spans_dropped", sink.spans_dropped());
    json.end_object();
    out << '\n';
  }
  write_jsonl(out, sink.events());
  write_jsonl(out, sink.spans());
}

}  // namespace mocc::obs
