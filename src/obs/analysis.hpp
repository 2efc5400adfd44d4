// Trace analysis: the read side of the causal-span layer.
//
// Everything in obs/trace.hpp is write-path — emission, ring buffering,
// JSONL export. This header is the consumer: it loads a trace written by
// write_trace_jsonl back into memory, reconstructs the per-trace span
// trees, attributes each m-operation's end-to-end virtual latency to
// phases along its critical path, exports Chrome/Perfetto trace_event
// JSON, and — the strongest check — rebuilds the core::History purely
// from op_read/op_write events plus mop spans so the paper's checkers
// can audit an execution from its trace alone (tools/trace_query is the
// CLI over these functions).
//
// Name handling: JSONL type names are resolved by round-tripping through
// the obs::to_string registries, never by re-spelling the strings — the
// trace-registry lint check enforces that the registry stays the single
// source of the schema.
//
// Determinism: every function is a pure function of its input bytes
// (ordered containers only, no wall clock), so analyzing the same trace
// twice yields byte-identical reports and Perfetto exports.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/fast_check.hpp"
#include "core/history.hpp"
#include "core/relations.hpp"
#include "obs/trace.hpp"

namespace mocc::obs {

/// A parsed trace file: the header accounting plus every event and span
/// line, in file order.
struct TraceFile {
  bool has_header = false;
  std::uint64_t events_total = 0;
  std::uint64_t events_dropped = 0;
  std::uint64_t spans_total = 0;
  std::uint64_t spans_dropped = 0;
  std::vector<TraceEvent> events;
  std::vector<Span> spans;
};

/// Parses write_trace_jsonl output (the header line is optional, so
/// plain write_jsonl event dumps load too). Returns false and sets
/// `error` ("line N: why") on malformed JSON, unknown type/span names,
/// or missing fields. Unknown keys are ignored (additive schema).
bool load_trace_jsonl(std::istream& in, TraceFile* out, std::string* error);

/// Empty when the trace is complete; otherwise a human-readable reason
/// the retained window truncates the execution (nonzero drop counts, or
/// a missing header when `require_header`). Analysis of a truncated
/// trace is refused by trace_query: span trees would have holes and the
/// latency attribution would lie.
std::string truncation_reason(const TraceFile& trace, bool require_header);

/// The spans of one trace id, in emission order, plus its root mop span
/// when the m-operation completed inside the retained window.
struct SpanTree {
  std::uint64_t trace_id = 0;
  std::vector<Span> spans;  ///< every span of the trace, emission order
  std::optional<Span> root;  ///< the mop span (parent_span == 0)
};

struct Forest {
  std::vector<SpanTree> traces;  ///< sorted by trace_id
};

/// Groups spans by trace id and verifies well-formedness: spans end no
/// earlier than they begin, each trace has at most one root, every
/// parent id resolves within its trace (rootless traces — m-operations
/// still in flight when the run ended — may dangle from exactly one
/// never-emitted root id). Returns false and sets `error` on the first
/// violation.
bool build_forest(const TraceFile& trace, Forest* out, std::string* error);

/// Critical-path phase totals for one m-operation, in virtual ticks.
/// queue + agree + lock + net == respond - invoke, exactly: every
/// breakpoint segment of the root window is charged to the
/// highest-priority span covering it (lock_wait > abcast_agree >
/// net_hop/retransmit > uncovered = queue).
struct PhaseBreakdown {
  std::uint64_t queue = 0;
  std::uint64_t agree = 0;
  std::uint64_t lock = 0;
  std::uint64_t net = 0;
  std::uint64_t total() const { return queue + agree + lock + net; }
};

struct MOpLatency {
  std::uint64_t trace_id = 0;
  std::uint64_t mop_id = 0;  ///< root span id field (core::MOpId)
  std::uint32_t process = 0;
  std::uint64_t invoke = 0;
  std::uint64_t respond = 0;
  bool is_update = false;
  std::optional<std::uint64_t> ww_seq;  ///< abcast position, updates only
  PhaseBreakdown phases;
};

/// One entry per rooted trace (completed m-operation), in trace-id
/// order. Rootless trees are skipped: with no [invoke, respond] window
/// there is nothing to attribute.
std::vector<MOpLatency> attribute_latency(const Forest& forest);

/// Chrome/Perfetto trace_event JSON: spans as complete ("X") slices
/// keyed pid=trace id / tid=node, events as instants. Byte-stable for a
/// given trace (golden-tested).
void write_perfetto_json(std::ostream& out, const TraceFile& trace);

/// A history rebuilt from the trace alone: mop spans supply process,
/// invoke/respond times, and the abcast position; op_read/op_write
/// events supply the operations (in emission = program order) including
/// reads-from. Ids must be dense 0..n-1 (they are the recorder's).
struct RebuiltExecution {
  std::optional<core::History> history;  ///< empty on failure
  core::WwRanks ww_ranks;  ///< abcast position per rebuilt id
  std::string error;       ///< set when history is empty
};

/// Pass 0 for `num_processes` / `num_objects` to infer them from the
/// trace (max node / object seen + 1); pass the system's real values to
/// compare against a recorder-built history with History::equivalent.
RebuiltExecution rebuild_execution(const TraceFile& trace,
                                   std::size_t num_processes,
                                   std::size_t num_objects);

/// Audit-from-trace: rebuild, then core::check_history of `condition`
/// with the rebuilt abcast positions as ~ww ranks — the Theorem-7 fast
/// check exactly as api::System::check_fast runs it from the recorder.
/// Traces with no abcast order (2PL runs, mocc-check locking
/// counterexamples) get the exact search, bounded by `exact_budget`
/// states (0 skips it). An exhausted budget is not a violation: the
/// audit passes with "undecided" in the detail.
struct TraceAudit {
  bool ok = false;
  std::size_t mops = 0;
  std::string detail;  ///< why !ok, or a one-line verdict
  std::optional<core::FastCheckResult> fast;  ///< set when ~ww present
};

TraceAudit audit_from_trace(const TraceFile& trace, core::Condition condition,
                            std::uint64_t exact_budget = 1'000'000);

}  // namespace mocc::obs
