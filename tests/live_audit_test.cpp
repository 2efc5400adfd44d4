// Streaming-auditor tests (src/obs/live.hpp): the truncation gate
// (drops force `inconclusive`, never a silent pass), clean-run agreement
// with the post-hoc trace audit, deliberate protocol mutations caught
// across seeds, the exec-engine streaming path, byte-level determinism
// of the report, bounded retention on 100k-m-op streams, and the
// StreamingGate timing gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <ctime>
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

// Timing means nothing without optimization or under a sanitizer, and
// instrumented builds shrink the long streams.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MOCC_LIVE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define MOCC_LIVE_TEST_SANITIZED 1
#endif
#endif
#ifndef MOCC_LIVE_TEST_SANITIZED
#define MOCC_LIVE_TEST_SANITIZED 0
#endif

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
};

/// Runs `config`'s workload with a StreamingAuditor tapped into the
/// trace path and a ring sink downstream of it, then audits the very
/// same trace post-hoc — the cross-check chaos --stream performs.
StreamedRun run_with_streaming(const api::SystemConfig& config,
                               bool stop_on_violation = false) {
  StreamingAuditorOptions options;
  options.condition = api::claimed_condition(config.protocol);
  options.processes = config.num_processes;
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
// protocols and seeds, and nothing is left pending at the end.

TEST(StreamingAuditor, CleanRunsAgreeWithPosthocAudit) {
  for (const std::string protocol : {"mseq", "mlin", "locking"}) {
    for (const std::uint64_t seed : {1u, 7u, 13u}) {
      const StreamedRun run = run_with_streaming(base_config(protocol, seed));
      EXPECT_TRUE(run.live.ok())
          << protocol << " seed " << seed << ": " << run.live.to_string();
      EXPECT_TRUE(run.posthoc.ok)
          << protocol << " seed " << seed << ": " << run.posthoc.detail;
      EXPECT_EQ(run.live.mops, run.posthoc.mops) << protocol << " " << seed;
      EXPECT_EQ(run.live.pending, 0u) << protocol << " " << seed;
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
// Deliberate mutations: across seeds, a live violation must always be
// confirmed by the post-hoc audit of the same trace (the streaming check
// never invents violations), and each mutation must actually be caught
// live on a non-trivial fraction of seeds — the negative control proving
// the stream does not wave broken runs through.
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

TEST(StreamingAuditor, MutationsCaughtAcrossSeeds) {
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
      const StreamedRun run = run_with_streaming(config);
      if (run.live.verdict == StreamVerdict::kViolation) {
        ++caught_live;
        // Soundness: a live violation is a violation of the full
        // history too.
        EXPECT_FALSE(run.posthoc.ok)
            << c.protocol << "/" << c.mutation << " seed " << seed
            << ": live flagged but post-hoc passed: " << run.live.detail;
        EXPECT_FALSE(run.live.detail.empty());
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
  const StreamedRun run = run_with_streaming(config, /*stop_on_violation=*/true);
  ASSERT_EQ(run.live.verdict, StreamVerdict::kViolation)
      << run.live.to_string();
  // The callback's request_stop() aborts the simulation before the
  // workload completes: fewer m-operations observed than the full run
  // issues (3 processes x 8 ops).
  EXPECT_LT(run.live.mops, 24u) << "run was not stopped mid-way";
}

// ---------------------------------------------------------------------
// The exec engine's trace-free path: the merged commit log streamed
// through verify_execution's own replay agrees with verify_execution.

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

  const StreamingReport report = exec::stream_execution(result);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.mops, result.stats.committed);
  EXPECT_EQ(report.pending, 0u);
}

// ---------------------------------------------------------------------
// Bookkeeping never makes a clean stream inconclusive: a cold object's
// only writer still resolves after thousands of later updates.

TEST(StreamingAuditor, ColdWriterOutlivesRetentionHorizon) {
  StreamingAuditor auditor;
  core::Time now = 0;
  const auto update = [&](std::uint64_t key, core::ObjectId object) {
    StreamingAuditor::ObservedMop mop;
    mop.process = static_cast<core::ProcessId>(key % 3);
    mop.key = key;
    mop.invoke = now++;
    mop.respond = now++;
    mop.ww = key;
    mop.ops.push_back({core::OpType::kWrite, object, static_cast<core::Value>(key + 1)});
    auditor.observe(std::move(mop));
  };
  update(0, 0);  // the only write of x0
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

// ---------------------------------------------------------------------
// Bounded state: on long simulator streams, what the auditor holds —
// writers, open intervals, frontier steps and in-flight invocations, runs
// of keys and ranks, and the m-operations it waits on — stays under a
// bound that does not grow with the stream. Under m-linearizability that
// holds for the whole stream, abcast-ranked (mlin) or lock-point-ranked
// (locking). Under m-sequential consistency the floor is the lowest last
// hi over the processes, so a process that has stopped invoking pins it
// (any later m-operation of it could still legally read every writer
// above): the mseq stream is measured while every process still has
// m-operations to invoke.

/// Forwards to the auditor and keeps the largest retained() seen after
/// each completed m-operation while it measures.
class RetentionProbe final : public TraceSink {
 public:
  RetentionProbe(StreamingAuditor& auditor, std::size_t processes, std::size_t last_invocation)
      : auditor_(auditor), invoked_(processes, 0), last_invocation_(last_invocation) {}
  void on_event(const TraceEvent& event) override {
    auditor_.on_event(event);
    if (event.type == TraceEventType::kMOpInvoke && ++invoked_.at(event.node) == last_invocation_) {
      measuring_ = false;
    }
  }
  void on_span(const Span& span) override {
    auditor_.on_span(span);
    if (span.type != SpanType::kMOp || !measuring_) return;
    ++samples;
    most_pending = std::max(most_pending, auditor_.report().pending);
    most_retained = std::max(most_retained, auditor_.retained());
  }
  std::size_t most_pending = 0;
  std::size_t most_retained = 0;
  std::size_t samples = 0;

 private:
  StreamingAuditor& auditor_;
  std::vector<std::size_t> invoked_;
  std::size_t last_invocation_;  ///< stop measuring when a process reaches it
  bool measuring_ = true;
};

api::SystemConfig long_stream_config(const std::string& protocol, const std::string& broadcast) {
  api::SystemConfig config;
  config.num_processes = 4;
  config.num_objects = 8;
  config.protocol = protocol;
  config.broadcast = broadcast;
  config.delay = "lan";
  return config;
}

TEST(StreamingAuditor, RetainedStateStaysBoundedOnLongStreams) {
  const std::size_t ops_per_process = MOCC_LIVE_TEST_SANITIZED ? 2'500 : 25'000;
  struct Case {
    const char* protocol;
    const char* broadcast;
    bool whole_stream;
  };
  for (const Case c : {Case{"mlin", "sequencer", true}, Case{"mseq", "isis", false},
                       Case{"locking", "sequencer", true}}) {
    const api::SystemConfig config = long_stream_config(c.protocol, c.broadcast);
    StreamingAuditorOptions options;
    options.condition = api::claimed_condition(c.protocol);
    options.processes = config.num_processes;
    StreamingAuditor auditor(options);
    RetentionProbe probe(auditor, config.num_processes,
                         c.whole_stream ? ops_per_process + 1 : ops_per_process);
    api::System system(config);
    system.set_trace_sink(&probe);
    protocols::WorkloadParams params;
    params.ops_per_process = ops_per_process;
    system.run_workload(params);
    const StreamingReport& report = auditor.finish();
    ASSERT_TRUE(report.ok()) << c.protocol << ": " << report.to_string();
    EXPECT_EQ(report.mops, config.num_processes * ops_per_process);
    EXPECT_EQ(report.pending, 0u);
    EXPECT_GE(probe.samples, report.mops / 2) << c.protocol;
    // Each object keeps its floor writer and a few writers and intervals
    // above it; the frontier spans the m-operations in flight.
    EXPECT_LE(probe.most_retained, 16 * config.num_objects) << c.protocol;
    EXPECT_LE(probe.most_pending, 64u) << c.protocol;
  }
}

/// Takes the trace and drops it: the run's cost of tracing, nothing else.
class NullSink final : public TraceSink {
 public:
  void on_event(const TraceEvent&) override {}
};

// The CI gate on a machine-independent ratio: what the auditor adds to a
// 20k-m-op mlin run, over the same run traced into a null sink, is no
// more than check_fast of the run afterwards (medians of three, after a
// warm-up). It times process CPU, which other processes on a loaded
// machine do not inflate as they do wall time.
TEST(StreamingGate, StreamAddsNoMoreThanCheckFast) {
#if !defined(__OPTIMIZE__) || MOCC_LIVE_TEST_SANITIZED
  GTEST_SKIP() << "timing gate needs an optimized, uninstrumented build";
#endif
  const api::SystemConfig config = long_stream_config("mlin", "sequencer");
  protocols::WorkloadParams params;
  params.ops_per_process = 5'000;
  const auto cpu = [] { return static_cast<double>(std::clock()) / CLOCKS_PER_SEC; };
  std::vector<double> added;
  std::vector<double> check_fast;
  for (int rep = 0; rep < 4; ++rep) {
    NullSink null;
    api::System off(config);
    off.set_trace_sink(&null);
    const double t0 = cpu();
    off.run_workload(params);
    const double t1 = cpu();
    const core::FastCheckResult fast = off.check_fast(core::Condition::kMLinearizability);
    const double t2 = cpu();
    ASSERT_TRUE(fast.admissible) << fast.detail;

    StreamingAuditorOptions options;
    options.processes = config.num_processes;
    StreamingAuditor auditor(options);
    api::System on(config);
    on.set_trace_sink(&auditor);
    const double t3 = cpu();
    on.run_workload(params);
    const StreamingReport& report = auditor.finish();
    const double t4 = cpu();
    ASSERT_TRUE(report.ok()) << report.to_string();
    if (rep == 0) continue;  // warm-up
    added.push_back((t4 - t3) - (t1 - t0));
    check_fast.push_back(t2 - t1);
  }
  std::sort(added.begin(), added.end());
  std::sort(check_fast.begin(), check_fast.end());
  EXPECT_LE(added[1], check_fast[1])
      << "the auditor adds " << added[1] << " s, check_fast takes " << check_fast[1] << " s";
}

// Every simulated producer ranks its updates; an update without a rank
// is beyond the Theorem-7 check, so the stream ends inconclusive, never
// ok, whatever comes after it.
TEST(StreamingAuditor, UnrankedUpdateMakesStreamInconclusive) {
  StreamingAuditor auditor;
  StreamingAuditor::ObservedMop write;
  write.key = 0;
  write.invoke = 1;
  write.respond = 2;
  write.ops.push_back({core::OpType::kWrite, 0, 1});
  auditor.observe(write);
  EXPECT_EQ(auditor.verdict(), StreamVerdict::kInconclusive) << auditor.report().to_string();

  StreamingAuditor::ObservedMop read;
  read.key = 1;
  read.invoke = 3;
  read.respond = 4;
  read.ops.push_back({core::OpType::kRead, 0, 1, 0});
  auditor.observe(read);
  const StreamingReport& report = auditor.finish();
  EXPECT_EQ(report.verdict, StreamVerdict::kInconclusive) << report.to_string();
  EXPECT_NE(report.detail.find("m0 writes without a ww rank"), std::string::npos)
      << report.detail;
}

// ---------------------------------------------------------------------
// Determinism: the report (every counter and the rendered string) is a
// pure function of config + seed.

TEST(StreamingAuditor, ReportIsDeterministic) {
  const api::SystemConfig config = base_config("mseq", 9);
  const StreamedRun a = run_with_streaming(config);
  const StreamedRun b = run_with_streaming(config);
  EXPECT_EQ(a.live.to_string(), b.live.to_string());
  EXPECT_EQ(a.live.mops, b.live.mops);
  EXPECT_EQ(a.live.pending, b.live.pending);
  EXPECT_EQ(a.posthoc.ok, b.posthoc.ok);
}

TEST(StreamingAuditor, ExportMetricsIsIdempotent) {
  StreamingAuditor auditor;
  api::System system(base_config("mlin", 4));
  system.set_trace_sink(&auditor);
  system.run_workload(small_workload());
  const StreamingReport& report = auditor.finish();

  Registry registry;
  auditor.export_metrics(registry);
  auditor.export_metrics(registry);  // set, not incremented
  EXPECT_EQ(registry.counters().at("audit_mops").value(), report.mops);
  EXPECT_EQ(registry.gauges().at("audit_pending").value(),
            static_cast<double>(report.pending));
  EXPECT_EQ(registry.gauges().at("audit_verdict").value(),
            static_cast<double>(report.verdict));
}

}  // namespace
}  // namespace mocc::obs
