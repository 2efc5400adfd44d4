// Post-run verification of the multicore engine: the commit order is
// the witness.
//
// The paper calls a history m-linearizable (§2.3) when some legal
// sequential history equivalent to it respects ~>H = po ∪ rf ∪ rt. The
// engine fixes one candidate itself: the commit-tid order
// (docs/exec-engine.md, "Why tid order is m-linearizable"). So
// verification searches nothing. It merges the per-worker logs into tid
// order and replays them once, rejecting unless:
//
//   - the merged log holds stats.committed m-operations, tids strictly
//     ascending from above the initial write's;
//   - (a) tid order refines real time: no m-operation responds before
//     one with a smaller tid is invoked (a suffix-min sweep of
//     responses; VerifyOptions::run_audit);
//   - each worker's m-operations are well-formed in tid order: invoked
//     no later than they respond, and no earlier than the worker's
//     previous one responded (ties pass, as in History::well_formed), so
//     program order lies inside tid order;
//   - every read, in program order, is legal at its tid: an internal
//     read (kOwnWriteTid) follows an own write of its object and returns
//     the latest one; an external read comes before any own write, names
//     the latest committed writer of its object — (c), the OCC
//     validation invariant, which also makes (b) every reads-from edge
//     run forward in tid — and returns that writer's last write of the
//     object, or the initial value;
//   - is_update holds iff the m-operation writes, worker and object ids
//     are in range, and the replayed final state equals final_values.
//
// Together these make tid order a legal sequential history equivalent to
// the merged history that respects po ∪ rf, and rt under run_audit: a
// witness, so the run is m-linearizable — or m-sequentially consistent,
// exactly, with run_audit off. The replay is O(m-operations + operations
// + objects) time and O(objects + workers) memory beyond the merged
// pointers; no History is built and no checker runs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "obs/live.hpp"
#include "obs/timeseries.hpp"

namespace mocc::exec {

struct VerifyOptions {
  /// Ignored: the replay is one pass over the whole merged log. Kept for
  /// callers that still set it.
  std::size_t window = 512;
  /// Check contract (a), tid order refines real time, which makes the
  /// witness m-linearizable rather than only m-sequentially consistent
  /// (every other check always runs).
  bool run_audit = true;
};

struct VerifyReport {
  bool ok = true;
  std::size_t mops = 0;     ///< committed m-operations verified
  std::size_t windows = 1;  ///< always 1 (one pass); kept for callers that read it
  std::vector<std::string> violations;

  void fail(std::string message);
  std::string to_string() const;
};

/// Merges `result`'s logs and checks the full verdict described above.
VerifyReport verify_execution(const ExecResult& result,
                              const VerifyOptions& options = {});

/// Auditor options matching this engine's log shape: m-linearizability
/// (commit-tid order refines real time) and the run's initial value.
obs::StreamingAuditorOptions stream_options(const ExecConfig& config);

/// Feeds the merged committed log through `auditor` in (epoch, tid)
/// order — the trace-free twin of the simulator's TraceSink tap. Reads
/// reference their writer by commit tid (kInitialTid maps to the
/// initializing write, kOwnWriteTid to an internal read), so the SAME
/// streaming windows + ghost-writer checks that audit the simulated
/// protocols judge the real-thread engine. Calls auditor.finish() and
/// returns its report.
///
/// When `series` and `registry` are both non-null, one time-series
/// sample is emitted every `sample_every` m-operations plus one final
/// sample after the audit completes. Samples carry the logical response
/// clock by default; `wallclock` stamps them with milliseconds of
/// wall time instead (non-deterministic — live monitoring only, never
/// a golden artifact).
const obs::StreamingReport& stream_execution(const ExecResult& result,
                                             obs::StreamingAuditor& auditor,
                                             obs::TimeSeriesWriter* series = nullptr,
                                             obs::Registry* registry = nullptr,
                                             std::size_t sample_every = 4096,
                                             bool wallclock = false);

}  // namespace mocc::exec
