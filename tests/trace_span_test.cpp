// Causal-span layer integration tests (src/obs/analysis.{hpp,cpp} over
// the instrumentation in sim/abcast/protocols/fault).
//
// The heart is a 50-seed x 3-protocol x faults-on/off sweep asserting
// the two load-bearing invariants end to end: every trace round-tripped
// through write_trace_jsonl parses back into a well-formed span forest,
// and every completed m-operation's critical-path phase breakdown sums
// EXACTLY to its end-to-end virtual latency. A second sweep checks the
// strongest property — the history rebuilt purely from the trace is
// equivalent to the ExecutionRecorder's and yields the same fast-check
// verdict. The Perfetto export is golden-tested byte-for-byte; to
// regenerate after an intended change:
//
//   MOCC_UPDATE_GOLDEN=1 build/tests/trace_span_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "api/system.hpp"
#include "experiments.hpp"
#include "obs/analysis.hpp"
#include "obs/trace.hpp"
#include "protocols/workload.hpp"

namespace mocc {
namespace {

api::SystemConfig sweep_config(const std::string& protocol, std::uint64_t seed,
                               bool faults) {
  api::SystemConfig config;
  config.protocol = protocol;
  config.num_processes = 3;
  config.num_objects = 8;
  config.delay = "lan";
  config.seed = seed;
  config.backlog_sample_interval = 64;
  if (faults) {
    config.reliable_link = true;
    config.link.initial_rto = 40;
    config.faults.seed = seed ^ 0x9e3779b97f4a7c15ULL;
    config.faults.default_link.drop_rate = 0.05;
    config.faults.default_link.duplicate_rate = 0.05;
  }
  return config;
}

/// Runs one traced workload and round-trips the trace through the JSONL
/// writer and parser (so every sweep also exercises the serialization).
struct TracedRun {
  obs::TraceFile trace;
  core::History history{1, 1};
  bool supports_audit = false;
  bool fast_ok = false;  ///< meaningful only when supports_audit
};

TracedRun run_traced(const api::SystemConfig& config, core::Condition condition) {
  obs::RingBufferSink sink(std::size_t{1} << 18);
  api::System system(config);
  system.set_trace_sink(&sink);
  protocols::WorkloadParams params;
  params.ops_per_process = 4;
  params.update_ratio = 0.5;
  params.footprint = 2;
  system.run_workload(params);

  std::stringstream jsonl;
  obs::write_trace_jsonl(jsonl, sink);
  TracedRun run;
  std::string error;
  EXPECT_TRUE(obs::load_trace_jsonl(jsonl, &run.trace, &error)) << error;
  run.history = system.history();
  run.supports_audit = system.supports_audit();
  if (run.supports_audit) {
    const core::FastCheckResult fast = system.check_fast(condition);
    run.fast_ok = fast.constraint_holds && fast.legal && fast.admissible;
  }
  return run;
}

constexpr const char* kProtocols[] = {"mseq", "mlin", "locking"};

/// The tentpole invariant sweep: 50 seeds x 3 protocols x faults on/off.
/// Every trace must round-trip into a complete, well-formed forest whose
/// per-m-operation phase attribution sums exactly to the end-to-end
/// virtual latency — no rounding, no unattributed ticks.
TEST(TraceSpan, ForestWellFormedAndPhasesSumExactlyAcrossSweep) {
  for (const char* protocol : kProtocols) {
    for (const bool faults : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        SCOPED_TRACE(std::string(protocol) + (faults ? "/faults" : "/clean") +
                     "/seed" + std::to_string(seed));
        const TracedRun run = run_traced(sweep_config(protocol, seed, faults),
                                         api::claimed_condition(protocol));
        EXPECT_EQ(obs::truncation_reason(run.trace, /*require_header=*/true), "");
        obs::Forest forest;
        std::string error;
        ASSERT_TRUE(obs::build_forest(run.trace, &forest, &error)) << error;
        const auto mops = obs::attribute_latency(forest);
        EXPECT_EQ(mops.size(), run.history.size());
        for (const obs::MOpLatency& mop : mops) {
          EXPECT_EQ(mop.phases.total(), mop.respond - mop.invoke)
              << "m-operation " << mop.mop_id << " lost ticks in attribution";
        }
      }
    }
  }
}

/// Audit-from-trace equals the recorder: the history rebuilt from
/// op_read/op_write events and mop spans alone is equivalent (same
/// per-process subhistories, same reads-from) to the one the
/// ExecutionRecorder kept, and the ww order recovered from the span args
/// reproduces the recorder's fast-check verdict.
TEST(TraceSpan, AuditFromTraceMatchesRecorder) {
  for (const char* protocol : kProtocols) {
    for (const bool faults : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        SCOPED_TRACE(std::string(protocol) + (faults ? "/faults" : "/clean") +
                     "/seed" + std::to_string(seed));
        const api::SystemConfig config = sweep_config(protocol, seed, faults);
        const core::Condition condition = api::claimed_condition(protocol);
        const TracedRun run = run_traced(config, condition);
        const obs::RebuiltExecution rebuilt = obs::rebuild_execution(
            run.trace, config.num_processes, config.num_objects);
        ASSERT_TRUE(rebuilt.history.has_value()) << rebuilt.error;
        EXPECT_TRUE(rebuilt.history->equivalent(run.history));
        const obs::TraceAudit audit = obs::audit_from_trace(run.trace, condition);
        EXPECT_EQ(audit.mops, run.history.size());
        if (run.supports_audit) {
          ASSERT_TRUE(audit.fast.has_value()) << audit.detail;
          EXPECT_EQ(audit.ok, run.fast_ok) << audit.detail;
          EXPECT_TRUE(audit.ok) << audit.detail;
        } else {
          EXPECT_FALSE(audit.fast.has_value());
          EXPECT_TRUE(audit.ok) << audit.detail;  // structural checks only
        }
      }
    }
  }
}

/// Satellite: the deterministic backlog probe fires at the configured
/// virtual-time interval, lands in the trace as backlog_sample events,
/// and publishes both gauges into an attached registry.
TEST(TraceSpan, BacklogProbeSamplesQueueDepthAndLinkBytes) {
  api::SystemConfig config = sweep_config("mlin", 3, /*faults=*/true);
  obs::RingBufferSink sink(std::size_t{1} << 18);
  obs::Registry registry;
  api::System system(config);
  system.set_trace_sink(&sink);
  system.set_metrics_registry(&registry);
  protocols::WorkloadParams params;
  params.ops_per_process = 4;
  system.run_workload(params);

  std::size_t samples = 0;
  for (const obs::TraceEvent& event : sink.events()) {
    if (event.type != obs::TraceEventType::kBacklogSample) continue;
    ++samples;
    EXPECT_EQ(event.time % config.backlog_sample_interval, 0u);
  }
  EXPECT_GT(samples, 0u);
  ASSERT_TRUE(registry.gauges().contains("sim_event_queue_depth"));
  ASSERT_TRUE(registry.gauges().contains("link_retransmit_buffer_bytes"));
  EXPECT_EQ(registry.gauge("sim_event_queue_depth").value(),
            static_cast<double>(system.backlog().queue_depth));
}

/// Satellite: a sink too small for the run reports drops, and the loader
/// + truncation gate refuse the trace instead of attributing a lie.
TEST(TraceSpan, TruncatedTraceIsDetected) {
  obs::RingBufferSink sink(4);  // far below the run's event volume
  api::System system(sweep_config("mlin", 5, /*faults=*/false));
  system.set_trace_sink(&sink);
  protocols::WorkloadParams params;
  params.ops_per_process = 4;
  system.run_workload(params);
  ASSERT_GT(sink.dropped(), 0u);

  std::stringstream jsonl;
  obs::write_trace_jsonl(jsonl, sink);
  obs::TraceFile trace;
  std::string error;
  ASSERT_TRUE(obs::load_trace_jsonl(jsonl, &trace, &error)) << error;
  EXPECT_NE(obs::truncation_reason(trace, /*require_header=*/false), "");

  // An event-only dump has no header: fine for casual reports, refused
  // when completeness must be proven (the audit path).
  obs::TraceFile headerless;
  std::stringstream events_only;
  obs::write_jsonl(events_only, sink.events());
  ASSERT_TRUE(obs::load_trace_jsonl(events_only, &headerless, &error)) << error;
  EXPECT_EQ(obs::truncation_reason(headerless, /*require_header=*/false), "");
  EXPECT_NE(obs::truncation_reason(headerless, /*require_header=*/true), "");
}

/// Shared golden-file check (same mechanism as bench_report_test):
/// regenerates under MOCC_UPDATE_GOLDEN=1, otherwise byte equality.
void expect_matches_golden(const std::string& rendered, const std::string& file) {
  const std::string golden_path = std::string(MOCC_GOLDEN_DIR) + "/" + file;

  if (std::getenv("MOCC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    out << rendered;
    GTEST_SKIP() << "golden file regenerated at " << golden_path;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path
                  << " — regenerate with MOCC_UPDATE_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(rendered, golden.str())
      << "Perfetto export bytes drifted from the golden " << file
      << "; if intended, regenerate with MOCC_UPDATE_GOLDEN=1 and review "
         "the diff";
}

/// Byte-pins the Perfetto export of the first E1 smoke point's trace.
/// Catches schema drift in the span layer, the JSONL round trip, and the
/// trace_event serialization all at once.
TEST(TraceSpan, PerfettoExportMatchesGolden) {
  api::SystemConfig config;
  config.protocol = "mseq";
  config.num_processes = 2;
  config.num_objects = 16;
  config.delay = "lan";
  config.seed = 42;
  protocols::WorkloadParams params;
  params.ops_per_process = 10;
  params.update_ratio = 0.2;
  params.footprint = 2;
  obs::RingBufferSink sink(std::size_t{1} << 18);
  bench::run_experiment(config, params, /*run_audit=*/false, &sink);

  std::stringstream jsonl;
  obs::write_trace_jsonl(jsonl, sink);
  obs::TraceFile trace;
  std::string error;
  ASSERT_TRUE(obs::load_trace_jsonl(jsonl, &trace, &error)) << error;
  ASSERT_EQ(obs::truncation_reason(trace, /*require_header=*/true), "");

  std::ostringstream perfetto;
  obs::write_perfetto_json(perfetto, trace);
  expect_matches_golden(perfetto.str(), "trace_e1_smoke.json");
}

}  // namespace
}  // namespace mocc
