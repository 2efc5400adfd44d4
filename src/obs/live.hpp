// Streaming online auditor: the paper's admissibility verdict, while
// the run is still executing.
//
// Every checker so far is post-hoc — the recorder or a JSONL trace is
// judged after the run finishes, so a violation at minute 2 of an
// hour-long chaos run burns the remaining 58. StreamingAuditor consumes
// completed m-operations online (as a TraceSink tapped into the
// simulator's trace path, or fed the exec engine's merged log through
// exec::stream_execution) and judges them as they arrive:
//
//   - global checks, exact and windowless: well-formedness (each
//     process's m-operations respond before the next invokes), value
//     coherence (every external read returns its writer's final value —
//     writers are retained up to a bounded horizon, and each object's
//     latest writer until it is overwritten), and duplicate abcast
//     positions;
//   - per window of `window` completed m-operations: a core::History is
//     built from the window's members plus GHOST m-operations — retained
//     pre-window writers that window reads reference, and any retained
//     same-object writer with a later abcast position (the interfering
//     writers the legality check needs). Ghosts keep their ORIGINAL
//     invocation/response times and ww positions, so the window history
//     is a true sub-history projection of the full execution: a witness
//     for the full history restricts to a witness for every window, and
//     the window checks therefore never flag an admissible run. The
//     window then runs core::check_history — the Theorem-7 fast check,
//     or the bounded exact search when no abcast order exists (2PL
//     runs) — exactly like the post-hoc auditors.
//
// The simulated protocols allow STALE reads — a query may read a value
// three updates old — so a window cannot start from a snapshot of the
// latest values; it carries the actual pre-window writers with their
// true times instead, at the cost of a bounded writer-retention horizon
// (kRetainUpdates). Each object's latest writer is pinned outside that
// horizon, so a read of a cold object's current value always resolves:
// memory is O(objects + horizon).
//
// Verdicts form a one-way lattice: ok < inconclusive < violation. A
// dropped trace event (ring-buffer overwrite), an evicted writer, an
// unresolvable read, or an undecided window (exact budget exhausted) can
// only move the verdict to `inconclusive` — the same truncation-gate
// contract as obs::analysis — and nothing moves it back down. The first
// violation fires an optional callback (chaos --stream uses it to stop
// the simulator mid-run).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/relations.hpp"
#include "core/types.hpp"
#include "obs/trace.hpp"

namespace mocc::obs {

class Registry;

enum class StreamVerdict : std::uint8_t {
  kOk = 0,
  kViolation = 1,
  kInconclusive = 2,
};

std::string_view to_string(StreamVerdict verdict);

struct StreamingAuditorOptions {
  core::Condition condition = core::Condition::kMLinearizability;
  /// Completed m-operations per window cut (the exec::verify default).
  std::size_t window = 512;
  /// State budget for the per-window exact search when the stream
  /// carries no abcast order (2PL). Exhaustion makes the window undecided
  /// and the verdict inconclusive, never a violation. 0 skips the search.
  std::uint64_t exact_budget = 200'000;
  core::Value initial_value = 0;
};

/// Completed updates whose final writes stay resolvable beyond each
/// object's latest writer (raised to the window size when smaller). A
/// read of a writer evicted from this horizon makes the verdict
/// inconclusive, never wrong.
inline constexpr std::size_t kRetainUpdates = 8192;

inline constexpr std::size_t kNoWindow = std::numeric_limits<std::size_t>::max();

struct StreamingReport {
  StreamVerdict verdict = StreamVerdict::kOk;
  std::size_t mops = 0;             ///< completed m-operations observed
  std::size_t windows = 0;          ///< window cuts performed
  std::size_t windows_passed = 0;   ///< cuts with a clean verdict
  std::size_t windows_failed = 0;   ///< cuts that found a violation
  std::size_t windows_undecided = 0;  ///< exact budget exhausted (not passed)
  std::size_t first_violation_window = kNoWindow;
  /// First violation / first inconclusive reason (empty while ok).
  std::string detail;

  bool ok() const { return verdict == StreamVerdict::kOk; }
  std::string to_string() const;
};

class StreamingAuditor final : public TraceSink {
 public:
  /// Sentinel writer key for the paper's imaginary initializing write.
  static constexpr std::uint64_t kInitialWriter = ~std::uint64_t{0};

  struct ObservedOp {
    core::OpType type = core::OpType::kRead;
    core::ObjectId object = 0;
    core::Value value = 0;
    /// Reads: key of the writer whose value was observed (kInitialWriter
    /// for the initializing write). Ignored for writes.
    std::uint64_t writer = kInitialWriter;
    /// Read satisfied by this m-operation's own earlier write (internal
    /// in the paper's sense; constrains nothing across m-operations).
    bool internal = false;
  };

  /// One completed m-operation, in completion order. `key` is the
  /// stream-wide name reads use to reference this writer: the trace
  /// m-operation id for simulator streams, the commit tid for the exec
  /// engine. Keys of retained updates must be unique.
  struct ObservedMop {
    core::ProcessId process = 0;
    std::uint64_t key = 0;
    core::Time invoke = 0;
    core::Time respond = 0;
    bool is_update = false;
    /// Abcast delivery rank / commit tid; absent for queries and for
    /// protocols with no broadcast order (2PL).
    std::optional<std::uint64_t> ww;
    std::vector<ObservedOp> ops;
  };

  explicit StreamingAuditor(StreamingAuditorOptions options = {});

  /// TraceSink: op_read / op_write events and the root `mop` span (the
  /// same audit trail trace_query rebuilds from) drive the audit. Other
  /// event and span types pass through untouched. NOT internally
  /// synchronized — attach to one simulator, not a ParallelRunner pool.
  void on_event(const TraceEvent& event) override;
  void on_span(const Span& span) override;

  /// Generic ingest for producers with no trace path (the exec engine's
  /// merged log). Call in completion order.
  void observe(ObservedMop mop);

  /// Records upstream loss: any dropped event or span means the stream
  /// truncates the execution, and the verdict becomes (at least)
  /// inconclusive — drops NEVER yield a silent pass. Pass cumulative
  /// totals; repeated calls with the same totals are idempotent.
  void note_drops(std::uint64_t events_dropped, std::uint64_t spans_dropped);
  /// Convenience: reads `sink`'s cumulative drop accounting.
  void note_sink(const RingBufferSink& sink);

  /// Fires once, at the first violation (inside the producing call).
  void set_violation_callback(std::function<void(const StreamingReport&)> cb);

  /// Forwards every consumed event/span downstream (tee), and emits one
  /// kAuditWindow event per cut. Null (default) disables both.
  void set_downstream(TraceSink* sink);

  /// Cuts the final partial window and resolves stragglers; idempotent.
  /// m-operations still waiting for a writer that is not retained leave
  /// the verdict inconclusive.
  const StreamingReport& finish();

  /// Running snapshot (no final cut).
  const StreamingReport& report() const { return report_; }
  StreamVerdict verdict() const { return report_.verdict; }
  bool violated() const { return report_.verdict == StreamVerdict::kViolation; }

  /// Publishes progress as counters "audit_mops", "audit_windows",
  /// "audit_windows_passed" / "_failed" / "_undecided" and gauge
  /// "audit_verdict" (set, not incremented — idempotent).
  void export_metrics(Registry& registry) const;

 private:
  struct WriterRecord {
    core::ProcessId process = 0;
    core::Time invoke = 0;
    core::Time respond = 0;
    std::optional<std::uint64_t> ww;
    /// Final write per object (earlier same-object writes are invisible
    /// across m-operations).
    std::vector<std::pair<core::ObjectId, core::Value>> writes;
    /// Objects whose latest writer this is; never evicted while > 0.
    std::size_t latest_of = 0;
    /// In writer_order_ (a pinned writer leaves it until displaced).
    bool queued = true;
  };

  struct Waiting {
    ObservedMop mop;
    std::vector<std::uint64_t> missing;  ///< writer keys not yet completed
    std::size_t enqueued_at = 0;         ///< completions_ when parked
  };

  void admit(ObservedMop mop);        // readiness reached: validate + buffer
  bool record_update(const ObservedMop& mop);
  void retire_waiting(std::uint64_t completed_key);
  void expire_waiting();
  void evict_writers();
  void cut_window();
  void mark_violation(std::size_t window_id, const std::string& why);
  void mark_inconclusive(const std::string& why);

  StreamingAuditorOptions options_;
  const std::size_t horizon_;  ///< kRetainUpdates raised to the window
  StreamingReport report_;
  bool finished_ = false;

  // Trace-mode assembly: op events buffered until the root span closes.
  std::map<std::uint64_t, std::vector<ObservedOp>> pending_ops_;

  // Retained writers: the horizon plus each object's latest writer.
  std::map<std::uint64_t, WriterRecord> writers_;
  std::deque<std::uint64_t> writer_order_;  ///< completion order, for eviction
  std::map<core::ObjectId, std::uint64_t> latest_writer_;  ///< per object
  /// Per object: retained writers with an abcast position, ascending by
  /// position — the index the interfering-ghost closure walks.
  std::map<core::ObjectId, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      by_object_ww_;
  /// Abcast position -> writer key, pruned with the horizon (global
  /// duplicate-position detection within it).
  std::map<std::uint64_t, std::uint64_t> ww_to_key_;

  std::vector<ObservedMop> buffer_;   ///< current window, readiness order
  std::vector<Waiting> waiting_;      ///< completed, writer not yet seen

  std::vector<core::Time> last_respond_;  ///< per process, well-formedness
  core::ProcessId max_process_ = 0;
  core::ObjectId max_object_ = 0;
  std::size_t completions_ = 0;  ///< total observe() calls, horizon clock

  std::uint64_t noted_event_drops_ = 0;
  std::uint64_t noted_span_drops_ = 0;

  std::function<void(const StreamingReport&)> violation_cb_;
  TraceSink* downstream_ = nullptr;
};

}  // namespace mocc::obs
