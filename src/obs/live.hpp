// Streaming online auditor: the paper's admissibility verdict, while the
// run is still executing.
//
// Every other checker is post-hoc, so a violation at minute 2 of an
// hour-long chaos run would burn the remaining 58. StreamingAuditor is a
// TraceSink tapped into the simulator's trace path: kMOpInvoke events
// announce each m-operation, op_read / op_write events and the root `mop`
// span (the audit trail trace_query rebuilds from) complete it, and
// core::StreamCheck decides each m-operation as soon as the ranks that
// could overwrite its reads are known — no windows, so a violation fires
// the callback inside the on_span that produced it. What is retained,
// and why it stays bounded, is documented in core/stream_check.hpp.
//
// Verdicts form a one-way lattice: ok < inconclusive < violation. A
// dropped trace event, a read from a writer that never completed, or an
// update whose span carries no ~ww rank moves the verdict to
// `inconclusive` — the truncation-gate contract of obs::analysis — and
// nothing moves it back down.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/stream_check.hpp"
#include "obs/trace.hpp"

namespace mocc::obs {

class Registry;

enum class StreamVerdict : std::uint8_t {
  kOk = 0,
  kViolation = 1,
  kInconclusive = 2,
};

std::string_view to_string(StreamVerdict verdict);

/// The check's options: condition, and processes (needed under
/// m-sequential consistency to release writers).
struct StreamingAuditorOptions : core::StreamCheck::Options {
  std::size_t window = 512;  ///< inert: the verdict has no windows
};

struct StreamingReport {
  StreamVerdict verdict = StreamVerdict::kOk;
  std::size_t mops = 0;     ///< completed m-operations observed
  std::size_t windows = 0;  ///< inert (always 0)
  std::size_t pending = 0;  ///< completed m-operations whose verdict is not final
  std::string detail;       ///< first violation / inconclusive reason

  bool ok() const { return verdict == StreamVerdict::kOk; }
  std::string to_string() const;
};

/// Sets counter "audit_mops" and gauges "audit_pending" and
/// "audit_verdict" (0 ok, 1 violation, 2 inconclusive): idempotent.
void export_metrics(const StreamingReport& report, Registry& registry);

class StreamingAuditor final : public TraceSink {
 public:
  static constexpr std::uint64_t kInitialWriter = core::StreamOp::kInitialWriter;
  using ObservedOp = core::StreamOp;
  using ObservedMop = core::StreamMop;

  explicit StreamingAuditor(StreamingAuditorOptions options = {}) : check_(options) {}

  /// Other event and span types pass through untouched. NOT internally
  /// synchronized — attach to one simulator, not a ParallelRunner pool.
  void on_event(const TraceEvent& event) override;
  void on_span(const Span& span) override;
  /// Ingests one completed m-operation directly (its key is the trace
  /// m-operation id). Without kMOpInvoke announcements the stream must
  /// arrive in response order.
  void observe(const ObservedMop& mop);

  /// Upstream loss (cumulative totals; idempotent): any drop makes the
  /// verdict at least inconclusive — drops NEVER yield a silent pass.
  void note_drops(std::uint64_t events_dropped, std::uint64_t spans_dropped);
  void note_sink(const RingBufferSink& sink) { note_drops(sink.dropped(), sink.spans_dropped()); }

  /// Fires once, at the first violation (inside the producing call).
  void set_violation_callback(std::function<void(const StreamingReport&)> cb) {
    violation_cb_ = std::move(cb);
  }
  /// Forwards every consumed event/span downstream (tee); null disables.
  void set_downstream(TraceSink* sink) { downstream_ = sink; }

  /// Ends the stream and decides what is still pending; idempotent.
  const StreamingReport& finish();

  const StreamingReport& report() const { return report_; }
  StreamVerdict verdict() const { return report_.verdict; }
  bool violated() const { return report_.verdict == StreamVerdict::kViolation; }
  /// core::StreamCheck::retained(): the state held beyond pending.
  std::size_t retained() const { return check_.retained(); }
  void export_metrics(Registry& registry) const { obs::export_metrics(report_, registry); }

 private:
  void sync();  ///< copies the check's outcome in; fires the callback
  void mark_inconclusive(const std::string& why);

  core::StreamCheck check_;
  StreamingReport report_;
  bool finished_ = false;
  /// Op events by m-operation id: the first live_ entries wait for their
  /// span, the rest keep their buffers for reuse.
  std::vector<std::pair<std::uint64_t, std::vector<ObservedOp>>> assembling_;
  std::size_t live_ = 0;
  ObservedMop current_;
  std::uint64_t noted_event_drops_ = 0;
  std::uint64_t noted_span_drops_ = 0;
  std::function<void(const StreamingReport&)> violation_cb_;
  TraceSink* downstream_ = nullptr;
};

}  // namespace mocc::obs
