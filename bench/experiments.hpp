// Experiment suite E1-E10 as a library: shared run helpers, the metrics
// each experiment registers (through obs::Registry), and the
// machine-readable record schema behind BENCH_results.json.
//
// Two front ends build on this:
//   - bench/report_main.cpp (`bench_report`): runs the suite and writes
//     the schema-versioned JSON artifact (tools/run_bench.sh wraps it);
//   - the bench_e*.cpp google-benchmark binaries: wall-clock timing of
//     the same configurations, exporting the same registry metrics as
//     benchmark counters (see common.hpp).
//
// Everything recorded here is a deterministic function of the seeds —
// virtual-time latencies, message counts, checker states visited — so a
// fixed-seed rerun serializes byte-identically (golden-tested by
// tests/bench_report_test.cpp). Wall-clock measurements stay in the
// google-benchmark binaries, never in the JSON artifact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "api/system.hpp"
#include "exec/engine.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocols/workload.hpp"

namespace mocc::bench {

/// Bumped whenever a field changes meaning or moves; consumers of
/// BENCH_results.json must check it (documented in docs/observability.md).
inline constexpr int kBenchSchemaVersion = 1;

/// Additive schema revisions: the header gains a "schema_minor" field
/// carrying the HIGHEST revision whose metric names actually appear in
/// the record set. Minor 1 is E8's fault/link metrics; minor 2 is the
/// span phase-breakdown series (--spans); minor 3 is E9's batch-size
/// series. Artifacts using none serialize exactly as minor 0 did, and
/// E8 artifacts without span metrics still say 1, so every pre-existing
/// fixed-seed golden stays byte-identical.
inline constexpr int kBenchSchemaMinorFaults = 1;
inline constexpr int kBenchSchemaMinorSpans = 2;
inline constexpr int kBenchSchemaMinorBatching = 3;
/// Minor 4 is E10's multicore-engine series (exec_committed et al.).
inline constexpr int kBenchSchemaMinorExec = 4;
/// Minor 5 is E11's streaming-audit series (audit_mops et al.).
inline constexpr int kBenchSchemaMinorStreaming = 5;
inline constexpr int kBenchSchemaVersionMinor = kBenchSchemaMinorStreaming;

/// Latency histogram shape shared by every experiment: virtual-tick
/// latencies land in [0, 4096) at 4-tick resolution, which covers every
/// delay model's tail at the benchmarked scales (overflow is still
/// counted and still feeds mean/min/max exactly).
inline constexpr double kLatencyLo = 0.0;
inline constexpr double kLatencyHi = 4096.0;
inline constexpr std::size_t kLatencyBuckets = 1024;

/// Ring capacity for span-enabled runs: comfortably above the busiest
/// full-sweep point's event volume, so register_span_metrics can insist
/// on a drop-free (non-truncated) trace.
inline constexpr std::size_t kSpanRingCapacity = std::size_t{1} << 19;

/// Virtual-time interval of the backlog probe attached to span-enabled
/// runs (SystemConfig::backlog_sample_interval) — deterministic, so the
/// sampled gauges are too.
inline constexpr sim::SimTime kBacklogSampleInterval = 64;

struct RunResult {
  protocols::WorkloadReport report;
  sim::TrafficStats traffic;
  sim::SimTime virtual_time = 0;
  bool audit_ran = false;
  bool audit_ok = false;  // meaningful only when audit_ran
  std::size_t history_size = 0;
  /// Fault-injection accounting (all zero when config.faults disabled).
  fault::FaultStats faults;
  /// Aggregate reliable-link counters (all zero when the link is off).
  fault::LinkStats link;
  std::size_t link_failures = 0;  ///< retry-budget exhaustions
  /// Last backlog-probe sample (all zero unless the config set
  /// backlog_sample_interval).
  api::System::BacklogSample backlog;
};

/// Builds a system, drives the closed-loop workload, and collects the
/// metrics every simulation experiment reports. When `trace` is non-null
/// it is attached for the duration of the run and receives every message
/// / m-op / lock / abcast event.
RunResult run_experiment(const api::SystemConfig& config,
                         const protocols::WorkloadParams& params,
                         bool run_audit = false, obs::TraceSink* trace = nullptr);

/// Registers the per-class latency metrics from a workload report:
/// counters `queries` / `updates` and histograms `q` / `u`.
///
/// Always registers all four, even for a run whose query (or update)
/// class is empty — an explicit zero-count histogram, not an absent key.
/// (The previous bench helper silently dropped empty classes, so an
/// update-only run produced a different schema than a mixed run and
/// downstream table generators needed per-experiment special cases.)
void register_latency_metrics(obs::Registry& registry,
                              const protocols::WorkloadReport& report);

/// Latency metrics plus the whole-run series every simulation experiment
/// shares: counters `mops` / `msgs` / `bytes`, gauges `virtual_time` /
/// `msg_per_op` / `bytes_per_op` / `tput` (completed m-ops per 1000
/// virtual ticks), and — when the run audited — gauge `audit_ok`.
void register_run_metrics(obs::Registry& registry, const RunResult& result);

/// Fault and reliable-link series for E8 records: counters
/// `fault_drops` / `fault_duplicates` / `fault_delay_spikes` /
/// `fault_partition_drops`, `link_data` / `link_retransmits` /
/// `link_acks` / `link_dedup` / `link_exhausted`, and gauge
/// `retransmit_rate` (resends per first transmission). Kept separate
/// from register_run_metrics so fault-free experiments keep their
/// pre-fault schema.
void register_fault_metrics(obs::Registry& registry, const RunResult& result);

/// Span-derived series for span-enabled records (schema minor 2):
/// critical-path phase histograms `phase_queue` / `phase_agree` /
/// `phase_lock` / `phase_net` (one sample per completed m-operation,
/// summing exactly to its end-to-end virtual latency), the sink's
/// `trace_events_*` / `trace_spans_*` drop accounting, and the backlog
/// gauges `sim_event_queue_depth` / `link_retransmit_buffer_bytes`.
/// `sink` must be the sink `result`'s run emitted into; aborts if the
/// ring dropped anything (a truncated trace cannot be attributed).
void register_span_metrics(obs::Registry& registry,
                           const obs::RingBufferSink& sink,
                           const RunResult& result);

/// Multicore-engine series for E10 records (schema minor 4): counters
/// `exec_committed` / `exec_abort_validation` / `exec_abort_lock` /
/// `exec_abandoned`, histogram `exec_retries` (one sample per committed
/// m-operation: attempts beyond the first), and gauges `exec_abort_rate`
/// (aborted attempts per attempt, 0 when nothing was attempted — the
/// all-abort/empty corner stays schema-stable with explicit zeros, the
/// same contract as register_latency_metrics) and `exec_tput_mops`
/// (committed m-ops per microsecond of wall clock). Wall clock is the
/// one non-deterministic input, so `include_wallclock=false` — used by
/// every smoke/golden record — pins the gauge to exactly 0.
void register_exec_metrics(obs::Registry& registry,
                           const exec::ExecResult& result,
                           bool include_wallclock);

/// Streaming-audit series for E11 records (schema minor 5): the
/// auditor's counter `audit_mops` and gauges `audit_pending` (completed
/// m-operations whose verdict is not final yet) and `audit_verdict`
/// (0 ok, 1 violation, 2 inconclusive) — the same names
/// obs::export_metrics publishes into time-series samples, so artifact
/// records and live streams read identically.
void register_streaming_metrics(obs::Registry& registry,
                                const obs::StreamingAuditor& auditor);

/// Batching series for E9 records (schema minor 3), read off the run's
/// batch_assign / batch_flush trace events: histograms
/// `batch_assign_size` (updates per sequencer position block) and
/// `batch_flush_items` (items per flushed frame, all batching layers)
/// plus counters `batch_assigns` / `batch_flushes`. Registered even for
/// the unbatched baseline (explicit zero counts, not absent keys) so
/// every E9 record shares one schema.
void register_batching_metrics(obs::Registry& registry,
                               const obs::RingBufferSink& sink);

/// One row of BENCH_results.json: a named configuration point of one
/// experiment plus everything measured there.
struct ExperimentRecord {
  enum class Audit : std::uint8_t { kNotApplicable, kOk, kFailed };

  std::string experiment;                      // "E1" .. "E8"
  std::string name;                            // "E1/query_latency/mseq/lan/n2"
  std::map<std::string, std::string> config;   // the exact sweep point
  obs::Registry metrics;
  sim::TrafficStats traffic;                   // zero for checker experiments
  Audit audit = Audit::kNotApplicable;
};

struct SuiteOptions {
  /// Reduced sweeps (CI-sized: seconds, not minutes). Every experiment
  /// still contributes records; only the grid shrinks.
  bool smoke = false;
  /// Subset of {"E1",..,"E10"}; empty = all.
  std::vector<std::string> only;
  /// Collect causal spans on the latency experiments (E1, E2, E8) and
  /// register the phase-breakdown series (schema minor 2). Off by
  /// default so existing artifacts keep their exact bytes.
  bool spans = false;
};

/// True when `experiment` is selected by `options.only` (or it is empty).
bool experiment_selected(const SuiteOptions& options, std::string_view experiment);

std::vector<ExperimentRecord> run_e1(const SuiteOptions& options);
std::vector<ExperimentRecord> run_e2(const SuiteOptions& options);
std::vector<ExperimentRecord> run_e3(const SuiteOptions& options);
std::vector<ExperimentRecord> run_e4(const SuiteOptions& options);
std::vector<ExperimentRecord> run_e5(const SuiteOptions& options);
std::vector<ExperimentRecord> run_e6(const SuiteOptions& options);
std::vector<ExperimentRecord> run_e7(const SuiteOptions& options);
/// E8: message overhead and delivery latency versus fault rate — the
/// reliable-link stack swept over drop rates, against a fault-free
/// baseline with the link detached.
std::vector<ExperimentRecord> run_e8(const SuiteOptions& options);
/// E9: hot-path batching — sequencer group-commit swept over batch
/// sizes (plus link-level coalescing on the "link" stack) against the
/// unbatched baseline, measuring the messages-per-update collapse and
/// the latency cost of the flush triggers. Audits run at every point.
std::vector<ExperimentRecord> run_e9(const SuiteOptions& options);
/// E10: the multicore execution engine (src/exec) — threads x
/// object-count x contention sweep of OCC commit throughput and abort
/// rate, every point's merged history re-checked by the admissibility
/// stack (fast check everywhere; the real-time contract check on the
/// high-contention legs, where aborts actually occur). Smoke mode runs the
/// single-thread points only: with one worker the engine is
/// deterministic end to end and the record — wall-clock gauge pinned to
/// zero — is golden-tested byte-for-byte like every simulator record.
std::vector<ExperimentRecord> run_e10(const SuiteOptions& options);
/// E11: streaming-audit overhead — E1-shaped (clean) and E8-shaped
/// (faulty, reliable-link) mlin runs, each in three audit modes: `off`
/// (no sink attached), `stream` (a StreamingAuditor consumes the trace
/// tap online), and `posthoc` (ring-buffer sink, whole trace audited
/// after the run). The JSON records carry only deterministic series
/// (virtual time, messages, audit progress); the wall-clock ≤2x overhead
/// claim is measured by the bench_e11_streaming google-benchmark binary.
std::vector<ExperimentRecord> run_e11(const SuiteOptions& options);

/// Runs every selected experiment in order. Deterministic: same options
/// → identical records. (One exception: E10's full-mode multi-thread
/// points carry wall-clock throughput and scheduler-dependent abort
/// counts; its smoke points — single-thread, wall-clock gauge zeroed —
/// are as deterministic as every other experiment.)
std::vector<ExperimentRecord> run_suite(const SuiteOptions& options);

/// Serializes records as the schema documented in docs/observability.md.
/// Byte-deterministic: map iteration is sorted and doubles use shortest
/// round-trip formatting, so fixed-seed reruns compare equal with cmp(1).
void write_records_json(std::ostream& out,
                        const std::vector<ExperimentRecord>& records,
                        const SuiteOptions& options);

/// Renders records as per-experiment util::Table blocks (the form the
/// EXPERIMENTS.md tables are regenerated from).
void print_records(std::ostream& out, const std::vector<ExperimentRecord>& records);

/// Runs one small fixed-seed mlin workload with a ring-buffer sink
/// attached and writes the full captured trace — header line, events,
/// spans — as JSONL (--trace demo; loadable by trace_query).
void write_demo_trace(std::ostream& out);

}  // namespace mocc::bench
