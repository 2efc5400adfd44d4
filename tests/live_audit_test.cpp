// Streaming-auditor tests (src/obs/live.hpp): the truncation gate
// (drops force `inconclusive`, never a silent pass), clean-run agreement
// with the post-hoc trace audit, window-boundary behavior under
// deliberate protocol mutations across seeds, the exec-engine streaming
// path, and byte-level determinism of the report.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "api/system.hpp"
#include "exec/engine.hpp"
#include "exec/verify.hpp"
#include "obs/analysis.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocols/workload.hpp"

namespace mocc::obs {
namespace {

protocols::WorkloadParams small_workload() {
  protocols::WorkloadParams params;
  params.ops_per_process = 8;
  params.update_ratio = 0.6;
  params.footprint = 2;
  return params;
}

struct StreamedRun {
  StreamingReport live;
  TraceAudit posthoc;
  std::size_t audit_window_events = 0;
};

/// Runs `config`'s workload with a StreamingAuditor tapped into the
/// trace path and a ring sink downstream of it, then audits the very
/// same trace post-hoc — the cross-check chaos --stream performs.
StreamedRun run_with_streaming(const api::SystemConfig& config,
                               std::size_t window,
                               bool stop_on_violation = false) {
  StreamingAuditorOptions options;
  options.condition = api::claimed_condition(config.protocol);
  options.window = window;
  StreamingAuditor auditor(options);
  RingBufferSink ring(1 << 18);
  auditor.set_downstream(&ring);

  api::System system(config);
  if (stop_on_violation) {
    auditor.set_violation_callback(
        [&system](const StreamingReport&) { system.request_stop(); });
  }
  system.set_trace_sink(&auditor);
  system.run_workload(small_workload());

  StreamedRun out;
  out.live = auditor.finish();

  TraceFile trace;
  trace.has_header = true;
  trace.events = ring.events();
  trace.spans = ring.spans();
  out.posthoc = audit_from_trace(trace, options.condition);
  for (const TraceEvent& event : trace.events) {
    if (event.type == TraceEventType::kAuditWindow) ++out.audit_window_events;
  }
  return out;
}

api::SystemConfig base_config(const std::string& protocol, std::uint64_t seed) {
  api::SystemConfig config;
  config.protocol = protocol;
  config.num_processes = 3;
  config.num_objects = 6;
  config.seed = seed;
  return config;
}

// ---------------------------------------------------------------------
// Clean runs: live verdict and post-hoc trace audit agree, across
// protocols, seeds, and window sizes (including windows small enough to
// cut mid-history many times).

TEST(StreamingAuditor, CleanRunsAgreeWithPosthocAudit) {
  for (const std::string protocol : {"mseq", "mlin", "locking"}) {
    for (const std::uint64_t seed : {1u, 7u, 13u}) {
      for (const std::size_t window : {2u, 8u, 512u}) {
        const StreamedRun run =
            run_with_streaming(base_config(protocol, seed), window);
        EXPECT_TRUE(run.live.ok())
            << protocol << " seed " << seed << " window " << window << ": "
            << run.live.to_string();
        EXPECT_TRUE(run.posthoc.ok)
            << protocol << " seed " << seed << ": " << run.posthoc.detail;
        EXPECT_EQ(run.live.mops, run.posthoc.mops) << protocol << " " << seed;
        EXPECT_EQ(run.live.windows_failed, 0u);
        // Every cut is announced downstream as a kAuditWindow event.
        EXPECT_EQ(run.audit_window_events, run.live.windows)
            << protocol << " seed " << seed << " window " << window;
      }
    }
  }
}

// ---------------------------------------------------------------------
// The truncation gate: upstream loss can only move the verdict UP the
// lattice to `inconclusive` — a dropped event must never let a run pass
// silently.

TEST(StreamingAuditor, ReportedDropsForceInconclusive) {
  StreamingAuditorOptions options;
  options.condition = core::Condition::kMLinearizability;
  StreamingAuditor auditor(options);
  api::System system(base_config("mlin", 3));
  system.set_trace_sink(&auditor);
  system.run_workload(small_workload());

  // The stream itself is complete and clean — only the loss report
  // differs from a passing run.
  auditor.note_drops(1, 0);
  auditor.note_drops(1, 0);  // idempotent: same cumulative totals
  const StreamingReport& report = auditor.finish();
  EXPECT_EQ(report.verdict, StreamVerdict::kInconclusive);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.detail.empty());
}

TEST(StreamingAuditor, TruncatedRingReplayIsInconclusive) {
  // Capture a run into a ring far too small for it, then feed the
  // retained suffix through the auditor the way a post-hoc consumer
  // would — note_sink carries the ring's drop accounting across.
  RingBufferSink ring(16);
  api::System system(base_config("mlin", 5));
  system.set_trace_sink(&ring);
  system.run_workload(small_workload());
  ASSERT_GT(ring.dropped() + ring.spans_dropped(), 0u)
      << "ring sized to overflow for this test";

  StreamingAuditorOptions options;
  options.condition = core::Condition::kMLinearizability;
  StreamingAuditor auditor(options);
  for (const TraceEvent& event : ring.events()) auditor.on_event(event);
  for (const Span& span : ring.spans()) auditor.on_span(span);
  auditor.note_sink(ring);
  const StreamingReport& report = auditor.finish();
  EXPECT_EQ(report.verdict, StreamVerdict::kInconclusive) << report.to_string();
}

TEST(StreamingAuditor, ViolationIsStickyAgainstLaterDrops) {
  // Lattice is one-way: once a run is known-bad, loss reports must not
  // soften the verdict back to inconclusive.
  api::SystemConfig config = base_config("mlin", 2);
  config.broadcast = "isis";
  config.num_objects = 1;
  config.mutation = "skip-delivery";
  StreamingAuditorOptions options;
  options.condition = core::Condition::kMLinearizability;
  options.window = 8;
  StreamingAuditor auditor(options);
  api::System system(config);
  system.set_trace_sink(&auditor);
  system.run_workload(small_workload());
  auditor.finish();
  ASSERT_TRUE(auditor.violated()) << auditor.report().to_string();

  auditor.note_drops(100, 100);
  EXPECT_EQ(auditor.verdict(), StreamVerdict::kViolation);
}

// ---------------------------------------------------------------------
// Window-boundary behavior under deliberate mutations: across seeds and
// small windows, a live violation must always be confirmed by the
// post-hoc audit of the same trace (the window projection never invents
// violations), and each mutation must actually be caught live on a
// non-trivial fraction of seeds — the negative control proving the
// windows do not wave broken runs through.
//
// seq-swap is deliberately absent: its damage surfaces as P5.3/P5.4
// protocol-internal timestamp violations that are invisible at the
// history level both the streaming conditions and audit_from_trace
// check (mocc-check finds its schedules only by exhaustive search).

struct MutationCase {
  const char* protocol;
  const char* mutation;
  std::size_t objects;
  /// early-release only manifests when the unlock-only message can
  /// overtake the write-only one — a reordering network.
  const char* delay = "lan";
};

TEST(StreamingAuditor, MutationsCaughtAcrossSeedsAndWindows) {
  const MutationCase cases[] = {
      {"mseq", "skip-delivery", 1},
      {"mlin", "skip-delivery", 1},
      {"locking", "early-release", 1, "reorder"},
  };
  for (const MutationCase& c : cases) {
    std::size_t caught_live = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      api::SystemConfig config = base_config(c.protocol, seed);
      config.num_objects = c.objects;
      config.mutation = c.mutation;
      config.delay = c.delay;
      if (std::string(c.protocol) != "locking") {
        config.broadcast = seed % 2 == 1 ? "sequencer" : "isis";
      }
      for (const std::size_t window : {2u, 8u}) {
        const StreamedRun run = run_with_streaming(config, window);
        if (run.live.verdict == StreamVerdict::kViolation) {
          if (window == 8) ++caught_live;
          // Soundness: a live violation is a violation of the full
          // history too.
          EXPECT_FALSE(run.posthoc.ok)
              << c.protocol << "/" << c.mutation << " seed " << seed
              << " window " << window
              << ": live flagged but post-hoc passed: " << run.live.detail;
          EXPECT_NE(run.live.first_violation_window, kNoWindow);
          EXPECT_FALSE(run.live.detail.empty());
        }
      }
    }
    EXPECT_GE(caught_live, 1u)
        << c.protocol << "/" << c.mutation
        << ": mutation never caught live across 20 seeds";
  }
}

TEST(StreamingAuditor, ViolationCallbackStopsRunMidway) {
  api::SystemConfig config = base_config("mlin", 2);
  config.broadcast = "isis";
  config.num_objects = 1;
  config.mutation = "skip-delivery";
  const StreamedRun run = run_with_streaming(config, 8,
                                             /*stop_on_violation=*/true);
  ASSERT_EQ(run.live.verdict, StreamVerdict::kViolation)
      << run.live.to_string();
  // The callback's request_stop() aborts the simulation before the
  // workload completes: fewer m-operations observed than the full run
  // issues (3 processes x 8 ops).
  EXPECT_LT(run.live.mops, 24u) << "run was not stopped mid-way";
}

// ---------------------------------------------------------------------
// The exec engine's trace-free path: the merged commit log streamed
// through the same auditor agrees with verify_execution.

TEST(StreamingAuditor, ExecStreamingMatchesVerify) {
  exec::ExecConfig config;
  config.threads = 2;
  config.objects = 16;
  config.mops_per_thread = 200;
  config.footprint = 3;
  config.seed = 11;
  const exec::ExecResult result = exec::run(config);
  ASSERT_EQ(result.stats.committed, config.threads * config.mops_per_thread);
  ASSERT_TRUE(verify_execution(result).ok);

  StreamingAuditor auditor(exec::stream_options(config));
  const StreamingReport& report = exec::stream_execution(result, auditor);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.mops, result.stats.committed);
  EXPECT_EQ(report.windows_failed, 0u);
  EXPECT_EQ(report.windows_undecided, 0u);
}

// ---------------------------------------------------------------------
// Bookkeeping limits never make a clean stream inconclusive: each
// object's latest writer outlives the retention horizon.

TEST(StreamingAuditor, ColdWriterOutlivesRetentionHorizon) {
  StreamingAuditor auditor;
  core::Time now = 0;
  const auto update = [&](std::uint64_t key, core::ObjectId object) {
    StreamingAuditor::ObservedMop mop;
    mop.process = static_cast<core::ProcessId>(key % 3);
    mop.key = key;
    mop.invoke = now++;
    mop.respond = now++;
    mop.is_update = true;
    mop.ww = key;
    mop.ops.push_back({core::OpType::kWrite, object, static_cast<core::Value>(key + 1)});
    auditor.observe(std::move(mop));
  };
  update(0, 0);  // the only write of x0
  static_assert(9000 > kRetainUpdates);
  for (std::uint64_t key = 1; key <= 9000; ++key) update(key, 1);

  StreamingAuditor::ObservedMop read;
  read.key = 9001;
  read.invoke = now++;
  read.respond = now++;
  StreamingAuditor::ObservedOp op;
  op.object = 0;
  op.value = 1;
  op.writer = 0;
  read.ops.push_back(op);
  auditor.observe(std::move(read));

  const StreamingReport& report = auditor.finish();
  EXPECT_EQ(report.verdict, StreamVerdict::kOk) << report.to_string();
  EXPECT_EQ(report.mops, 9002u);
}

// An exhausted exact budget is undecided: the window does not pass and
// the stream ends inconclusive (2PL traces carry no abcast order, so
// every window takes the exact search).
TEST(StreamingAuditor, UndecidedWindowMakesStreamInconclusive) {
  StreamingAuditorOptions options;
  options.condition = core::Condition::kMLinearizability;
  options.window = 8;
  options.exact_budget = 1;
  StreamingAuditor auditor(options);
  api::System system(base_config("locking", 1));
  system.set_trace_sink(&auditor);
  system.run_workload(small_workload());

  const StreamingReport& report = auditor.finish();
  EXPECT_EQ(report.verdict, StreamVerdict::kInconclusive) << report.to_string();
  EXPECT_EQ(report.windows, 3u);
  EXPECT_EQ(report.windows_undecided, 3u);
  EXPECT_EQ(report.windows_passed, 0u);
  EXPECT_NE(report.detail.find("undecided"), std::string::npos) << report.detail;
}

// ---------------------------------------------------------------------
// Determinism: the report (every counter and the rendered string) is a
// pure function of config + seed.

TEST(StreamingAuditor, ReportIsDeterministic) {
  const api::SystemConfig config = base_config("mseq", 9);
  const StreamedRun a = run_with_streaming(config, 4);
  const StreamedRun b = run_with_streaming(config, 4);
  EXPECT_EQ(a.live.to_string(), b.live.to_string());
  EXPECT_EQ(a.live.mops, b.live.mops);
  EXPECT_EQ(a.live.windows, b.live.windows);
  EXPECT_EQ(a.live.windows_passed, b.live.windows_passed);
  EXPECT_EQ(a.posthoc.ok, b.posthoc.ok);
}

TEST(StreamingAuditor, ExportMetricsIsIdempotent) {
  StreamingAuditorOptions options;
  options.window = 4;
  StreamingAuditor auditor(options);
  api::System system(base_config("mlin", 4));
  system.set_trace_sink(&auditor);
  system.run_workload(small_workload());
  const StreamingReport& report = auditor.finish();

  Registry registry;
  auditor.export_metrics(registry);
  auditor.export_metrics(registry);  // set, not incremented
  EXPECT_EQ(registry.counters().at("audit_mops").value(), report.mops);
  EXPECT_EQ(registry.counters().at("audit_windows").value(), report.windows);
  EXPECT_EQ(registry.counters().at("audit_windows_passed").value(),
            report.windows_passed);
  EXPECT_EQ(registry.gauges().at("audit_verdict").value(),
            static_cast<double>(report.verdict));
}

}  // namespace
}  // namespace mocc::obs
