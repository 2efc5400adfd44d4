// Post-run verification of the multicore engine by the paper's checkers.
//
// The committed logs merge deterministically by (epoch, tid) and replay
// into protocols::ExecutionRecorder histories, so the SAME verdict that
// judges the simulated protocols judges the real-thread engine:
// core::check_history (well-formedness, value coherence, and the
// Theorem-7 fast check of m-linearizability with the commit tids as ~ww
// ranks). On top of it, verification checks the contract the engine's
// proof rests on (docs/exec-engine.md), each in one pass over the whole
// merged order:
//
//   (a) tid order refines real time: no m-operation responds before one
//       with a smaller tid is invoked (a suffix-min sweep of responses);
//   (b) every reads-from edge runs forward in tid, which (c) implies;
//   (c) the replay invariant — every external read names the LATEST
//       committed writer of its object at that point of the merged order
//       (the OCC validation invariant: a lost update breaks it even when
//       both halves of the anomaly land in different windows) — and the
//       replayed final state equals the store's.
//
// Take ts(α) as the per-object committed write counts up to α in tid
// order: (a)–(c) imply every P5.x property on those timestamps, and (a)
// is global, so a real-time inversion across a window cut is caught too.
//
// Scaling: check_history runs in WINDOWS of `options.window`
// m-operations, because each window is one History of about 0.7 KB per
// m-operation. Every window after the first starts with a synthetic
// snapshot m-operation (process id = num workers) that writes every
// object the value it had at the window cut, with ww_seq below every
// real tid and invoke/response before every real stamp — exactly the
// paper's imaginary initializing write, re-issued per window. Reads from
// pre-window writers resolve to the snapshot. Per-window verdicts
// compose because commit-tid order refines real time — (a) — so every
// real-time edge crosses window cuts forward, and admissibility of each
// window in tid order leaves no cross-window witness to find; (c) checks
// the cross-window reads-from glue directly.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "obs/live.hpp"
#include "obs/timeseries.hpp"

namespace mocc::exec {

struct VerifyOptions {
  /// M-operations per replay window: each window's History is checked,
  /// then freed, so the window bounds verification memory. Every window
  /// after the first also replays a snapshot m-operation writing every
  /// object, so with many objects larger windows verify faster.
  std::size_t window = 512;
  /// Check contract (a), tid order refines real time, over the whole
  /// merged order (the fast check, value coherence, and the replay
  /// invariants always run).
  bool run_audit = true;
};

struct VerifyReport {
  bool ok = true;
  std::size_t mops = 0;     ///< committed m-operations verified
  std::size_t windows = 0;  ///< replay windows checked
  std::vector<std::string> violations;

  void fail(std::string message);
  std::string to_string() const;
};

/// Merges `result`'s logs and checks the full verdict described above.
VerifyReport verify_execution(const ExecResult& result,
                              const VerifyOptions& options = {});

/// Auditor options matching this engine's log shape: m-linearizability
/// (commit-tid order refines real time), the run's initial value, and
/// the verify default window.
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
