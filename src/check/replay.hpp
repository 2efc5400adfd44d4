// mocc-check replay: deterministic re-execution of a recorded schedule.
//
// A violating schedule found by explore() is just a choice sequence; the
// simulation is a pure function of it. The replay file format captures
// the configuration plus one line per choice point, each carrying the
// structural signature of the chosen delivery (send seq, from, to, wire
// kind, payload FNV-1a). Replay re-runs the system under a fixed
// controller that verifies every signature before following it — if the
// binary's send behavior changed since the file was recorded, replay
// reports the exact step that diverged instead of silently exploring a
// different execution.
//
// Replay is the bridge into the observability pipeline: pass a TraceSink
// and the re-execution emits the full causal-span trace, which
// `trace_query --audit` (and the rest of tools/trace_query) consumes.
//
// File format (line-oriented text, '#' comments allowed):
//
//   mocc-check-replay v1
//   protocol mseq
//   broadcast sequencer
//   mutation seq-swap          # "-" when exploring the correct protocol
//   processes 2
//   objects 2
//   ops 2
//   reason P5.x audit failed: ...
//   choices 17
//   choice <enabled> <chosen> <seq> <from> <to> <kind> <payload_hash>
//   ...                        # exactly `choices` choice lines
#pragma once

#include <string>

#include "check/explore.hpp"
#include "obs/trace.hpp"

namespace mocc::check {

/// Serializes a counterexample into the replay file format above.
std::string format_counterexample(const Counterexample& counterexample);

/// Parses the replay file format. Returns false (with `error` set) on an
/// unsupported version line or any malformed field; budgets and toggles
/// not present in the format keep their ExploreConfig defaults. An
/// `exact-budget` line, which older writers emitted, is read and ignored.
bool parse_counterexample(const std::string& text, Counterexample& out,
                          std::string& error);

struct ReplayResult {
  /// True when every recorded choice was followed and the run reached
  /// quiescence without running past the recorded sequence.
  bool faithful = false;
  /// Non-empty when the execution stopped matching the file: names the
  /// first divergent step and what differed.
  std::string divergence;
  /// Verdict of the replayed schedule (empty = admissible). A recorded
  /// violation that replays faithfully reproduces its reason here.
  std::string violation;
  /// Mirrors ScheduleVerdict::history_level for the replayed violation:
  /// true when it is visible in the recorded history alone and therefore
  /// reproducible by `trace_query --audit` on the emitted trace.
  bool history_level = false;
};

/// Re-executes a counterexample's schedule and re-judges the terminal
/// state with the same checks explore() used. `trace_sink` (optional,
/// not owned) receives the re-execution's causal spans — feed a
/// RingBufferSink and obs::write_trace_jsonl to hand the schedule to
/// trace_query.
ReplayResult replay(const Counterexample& counterexample,
                    obs::TraceSink* trace_sink = nullptr);

}  // namespace mocc::check
