// Structured execution tracing.
//
// The simulator, the abcast layer, and every replica protocol emit
// TraceEvents describing *why* a run behaved as it did: each message
// send/delivery, each m-operation invocation/response, each lock
// acquire/release at a 2PL home, and each atomic-broadcast delivery
// position. Emission goes through a TraceSink pointer that is null by
// default — the instrumentation is always compiled in, and the only cost
// with no sink attached is one pointer test per event site (overhead
// policy in docs/observability.md).
//
// TraceEvent is a flat POD with generic fields so this layer depends on
// nothing above util; the per-type field meanings are documented on the
// enum below and mirrored by the JSONL exporter.
//
// Thread safety: one Simulator emits from a single thread, but parallel
// sweeps (sim::ParallelRunner) may attach the SAME sink to many
// concurrently-running simulators, so sink implementations must be
// internally synchronized. RingBufferSink locks a mutex per event; the
// ordering guarantee under sharing is per-simulator order preservation
// (each simulator's events appear in emission order; events from
// different simulators interleave arbitrarily).
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string_view>
#include <vector>

#include "util/thread_annotations.hpp"

namespace mocc::obs {

class Registry;

enum class TraceEventType : std::uint8_t {
  /// node=sender, peer=receiver, kind=message kind, arg=payload bytes.
  kMessageSend = 0,
  /// node=receiver, peer=sender, kind=message kind, arg=payload bytes.
  kMessageDeliver,
  /// node=process, id=m-operation id, arg=1 if the program is an update.
  kMOpInvoke,
  /// node=process, id=m-operation id, arg=invocation virtual time.
  kMOpRespond,
  /// node=lock home, peer=client, kind=lock id, id=token, arg=1 if exclusive.
  kLockAcquire,
  /// node=lock home, kind=lock id, id=token, arg=1 if exclusive.
  kLockRelease,
  /// node=delivering replica, peer=origin, id=agreed sequence position,
  /// arg=payload bytes.
  kAbcastSequence,
  /// Fault injection (src/fault): message discarded at send time.
  /// node=sender, peer=receiver, kind=message kind, arg=payload bytes.
  kFaultDrop,
  /// One injected extra copy. node=sender, peer=receiver, kind=message
  /// kind, arg=payload bytes.
  kFaultDuplicate,
  /// Delay spike applied to a send. node=sender, peer=receiver,
  /// kind=message kind, id=extra ticks, arg=payload bytes.
  kFaultDelay,
  /// Delivery or timer discarded at a crashed node. node=crashed node,
  /// peer=sender (0 for timers), kind=message kind (0 for timers),
  /// id=timer id (0 for messages), arg=1 for timers else 0.
  kFaultCrashDiscard,
  /// Reliable link (src/fault): retransmission of an unacked message.
  /// node=sender, peer=receiver, kind=inner kind, id=link sequence
  /// number, arg=attempt count so far.
  kLinkRetransmit,
  /// Duplicate data suppressed by receiver-side dedup. node=receiver,
  /// peer=sender, kind=inner kind, id=link sequence number.
  kLinkDuplicate,
  /// Retry budget exhausted; the link stopped retransmitting.
  /// node=sender, peer=receiver, kind=inner kind, id=link sequence
  /// number, arg=attempts made.
  kLinkExhausted,
  /// One read performed by an m-operation, emitted at response time in
  /// program order. node=process, kind=object, id=m-operation id,
  /// peer=the m-operation read from (core::kInitialMOp for the
  /// initializing write), arg=value read (two's-complement).
  kOpRead,
  /// One write performed by an m-operation, emitted at response time in
  /// program order. node=process, kind=object, id=m-operation id,
  /// arg=value written (two's-complement).
  kOpWrite,
  /// Deterministic backlog probe, sampled when virtual time crosses a
  /// configured interval. id=simulator event-queue depth,
  /// arg=reliable-link retransmit-buffer bytes across all nodes.
  kBacklogSample,
  /// Sequencer group-commit: a contiguous position block assigned to a
  /// batch of pending updates in one round. node=sequencer, id=first
  /// position of the block, arg=block size (updates in the batch),
  /// kind=flush trigger (0=size, 1=age, 2=drain).
  kBatchAssign,
  /// Batching-layer flush: a pending queue emitted as one frame.
  /// node=sender, peer=destination (0 for broadcast batches), kind=flush
  /// trigger (0=size/bytes, 1=age, 2=drain), id=frame payload bytes,
  /// arg=items in the frame.
  kBatchFlush,
  /// Multicore engine (src/exec) OCC commit. time=logical-clock response
  /// stamp (NOT virtual time — the engine has no simulator), node=worker,
  /// id=commit tid, arg=attempts the m-operation took (1 = first try).
  kExecCommit,
  /// Multicore engine OCC abort of one attempt. time=logical clock when
  /// the abort was observed, node=worker, kind=reason (0=lock-spin
  /// budget, 1=read-set validation), id=attempt number aborted.
  kExecAbort,
};

/// Stable lowercase name used by the JSONL exporter ("message_send", ...).
std::string_view to_string(TraceEventType type);

struct TraceEvent {
  TraceEventType type{};
  std::uint64_t time = 0;  ///< virtual time of the emitting simulator
  std::uint32_t node = 0;
  std::uint32_t peer = 0;
  std::uint32_t kind = 0;
  std::uint64_t id = 0;
  std::uint64_t arg = 0;
};

/// Causal trace context, propagated Dapper-style: a trace id names the
/// end-to-end m-operation, a span id names the causally-latest span on
/// the path that carried the context here. Trace id 0 means "no trace"
/// (context-free work: simulator bootstrap calls, background timers).
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

/// The phases a traced m-operation decomposes into. Names are kept in
/// three-way sync (enum / to_string / docs table) by the same
/// trace-registry lint check that guards TraceEventType.
enum class SpanType : std::uint8_t {
  /// Whole m-operation, invoke to respond; the root span of its trace.
  /// node=process, id=m-operation id, arg = (is_update ? 1 : 0) |
  /// ((ww_seq + 1) << 1) — ww_seq is the abcast delivery rank for
  /// updates, arg >> 1 == 0 when the m-operation has no ww position.
  kMOp = 0,
  /// Atomic-broadcast agreement: first sighting of the payload at the
  /// delivering node until its agreed-position delivery. node=delivering
  /// replica, peer=origin, id=agreed position.
  kAbcastAgree,
  /// 2PL lock-queue wait at the lock home, enqueue to grant.
  /// node=lock home, peer=client, kind=lock id, id=token,
  /// arg=1 if exclusive.
  kLockWait,
  /// One network hop, send to delivery. node=receiver, peer=sender,
  /// kind=message kind, arg=payload bytes.
  kNetHop,
  /// Reliable-link retransmission delay: previous transmission until the
  /// retry timer resent the frame. node=sender, peer=receiver,
  /// kind=inner kind, id=link sequence number, arg=attempt count.
  kRetransmit,
};

/// Stable lowercase name used by the JSONL exporter ("mop", ...).
std::string_view to_string(SpanType type);

/// A completed span: one timed phase of one trace. Emitted once, at the
/// span's end, with both virtual timestamps filled in.
struct Span {
  SpanType type{};
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;  ///< 0 for the root span of a trace
  std::uint64_t begin = 0;       ///< virtual time
  std::uint64_t end = 0;         ///< virtual time, >= begin
  std::uint32_t node = 0;
  std::uint32_t peer = 0;
  std::uint32_t kind = 0;
  std::uint64_t id = 0;
  std::uint64_t arg = 0;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// May be called concurrently from multiple simulator threads.
  virtual void on_event(const TraceEvent& event) = 0;
  /// Completed spans; default no-op so event-only sinks stay untouched.
  /// May be called concurrently from multiple simulator threads.
  virtual void on_span(const Span& span) { (void)span; }
};

/// Bounded in-memory sink: keeps the newest `capacity` events, counts
/// everything. Internally synchronized (shareable across a
/// sim::ParallelRunner pool).
class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity);

  void on_event(const TraceEvent& event) override MOCC_EXCLUDES(mu_);
  void on_span(const Span& span) override MOCC_EXCLUDES(mu_);

  /// Retained events, oldest first.
  std::vector<TraceEvent> events() const MOCC_EXCLUDES(mu_);
  /// Retained spans, oldest first (spans have their own ring of the same
  /// capacity, so event bursts cannot evict span history or vice versa).
  std::vector<Span> spans() const MOCC_EXCLUDES(mu_);
  /// All events ever offered (retained + dropped).
  std::uint64_t total() const MOCC_EXCLUDES(mu_);
  /// Events overwritten because the ring was full.
  std::uint64_t dropped() const MOCC_EXCLUDES(mu_);
  /// All spans ever offered (retained + dropped).
  std::uint64_t spans_total() const MOCC_EXCLUDES(mu_);
  /// Spans overwritten because the span ring was full.
  std::uint64_t spans_dropped() const MOCC_EXCLUDES(mu_);
  std::size_t capacity() const { return capacity_; }
  void clear() MOCC_EXCLUDES(mu_);

  /// Publishes the sink's accounting into `registry` as counters
  /// "trace_events_total" / "trace_events_dropped" and
  /// "trace_spans_total" / "trace_spans_dropped" (set, not incremented,
  /// so repeated exports stay idempotent). A nonzero dropped count in a
  /// report means the retained window truncates the execution.
  void export_metrics(Registry& registry) const MOCC_EXCLUDES(mu_);

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_ MOCC_GUARDED_BY(mu_);
  std::size_t next_ MOCC_GUARDED_BY(mu_) = 0;  ///< overwrite cursor once full
  std::uint64_t total_ MOCC_GUARDED_BY(mu_) = 0;
  std::vector<Span> span_ring_ MOCC_GUARDED_BY(mu_);
  std::size_t span_next_ MOCC_GUARDED_BY(mu_) = 0;
  std::uint64_t span_total_ MOCC_GUARDED_BY(mu_) = 0;
};

/// One compact JSON object per line:
/// {"type":"message_send","t":12,"node":0,"peer":1,"kind":100,"id":0,"arg":17}
void write_jsonl(std::ostream& out, const std::vector<TraceEvent>& events);

/// One compact JSON object per line:
/// {"type":"span","span":"mop","trace":1,"sid":2,"parent":0,"begin":0,
///  "end":17,"node":0,"peer":0,"kind":0,"id":0,"arg":1}
void write_jsonl(std::ostream& out, const std::vector<Span>& spans);

/// Full trace export: one header line carrying the sink's drop
/// accounting ({"type":"header","events_total":...,"events_dropped":...,
/// "spans_total":...,"spans_dropped":...}), then every retained event,
/// then every retained span. trace_query refuses to analyze traces whose
/// header reports drops (the retained window truncates the execution).
void write_trace_jsonl(std::ostream& out, const RingBufferSink& sink);

}  // namespace mocc::obs
