// E11 — Streaming-audit overhead: wall-clock cost of auditing a run
// WHILE it executes versus not auditing at all versus auditing the
// captured trace afterwards.
//
// Acceptance bar (EXPERIMENTS.md): on the smoke-sized E1/E8 shapes, the
// `stream` mode must stay within 2x of the `off` mode's wall time — the
// incremental Theorem-7 check rides the simulator's event loop and
// decides each m-operation once, so the overhead is a constant per
// m-operation, not a re-run of the history. `posthoc` bounds the
// comparison: it pays the checker once at the end plus the ring capture.
//
// Counters: wall time per mode (google-benchmark's own timing), plus
// the run's virtual-time series and — in stream mode — the auditor's
// audit_mops / audit_pending / audit_verdict series.
#include "common.hpp"

#include "obs/analysis.hpp"
#include "obs/live.hpp"

namespace mocc::bench {
namespace {

enum class Mode { kOff, kStream, kPosthoc };

api::SystemConfig shape_config(bool faults) {
  api::SystemConfig config;
  config.protocol = "mlin";
  config.num_processes = 3;
  config.num_objects = 8;
  config.delay = "lan";
  config.seed = 77;
  if (faults) {
    config.reliable_link = true;
    config.link.initial_rto = 40;
    config.faults.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
    config.faults.default_link.drop_rate = 0.05;
    config.faults.default_link.duplicate_rate = 0.05;
  }
  return config;
}

void Streaming(::benchmark::State& state, bool faults, Mode mode, std::size_t ops_per_process) {
  const api::SystemConfig config = shape_config(faults);
  protocols::WorkloadParams params;
  params.ops_per_process = ops_per_process;
  params.update_ratio = 0.5;
  params.footprint = 2;

  RunResult result;
  obs::Registry audit_metrics;
  for (auto _ : state) {
    switch (mode) {
      case Mode::kOff:
        result = run_experiment(config, params, /*run_audit=*/false);
        break;
      case Mode::kStream: {
        obs::StreamingAuditorOptions live;
        live.condition = core::Condition::kMLinearizability;
        live.processes = config.num_processes;
        obs::StreamingAuditor auditor(live);
        result = run_experiment(config, params, /*run_audit=*/false, &auditor);
        auditor.finish();
        MOCC_ASSERT_MSG(!auditor.violated(), "correct protocol flagged");
        auditor.export_metrics(audit_metrics);
        break;
      }
      case Mode::kPosthoc: {
        obs::RingBufferSink sink(kSpanRingCapacity);
        result = run_experiment(config, params, /*run_audit=*/false, &sink);
        obs::TraceFile trace;
        trace.has_header = true;
        trace.events = sink.events();
        trace.spans = sink.spans();
        const obs::TraceAudit audit = obs::audit_from_trace(
            trace, core::Condition::kMLinearizability);
        MOCC_ASSERT_MSG(audit.ok, "correct protocol flagged post-hoc");
        audit_metrics.gauge("posthoc_audit_ok").set(audit.ok ? 1.0 : 0.0);
        break;
      }
    }
  }
  set_run_counters(state, result);
  export_metrics(state, audit_metrics);
}

/// The smoke shape (75 m-ops) in every mode, and 10k and 100k m-op runs
/// (suffix /10k, /100k) off and streamed: the ring of the posthoc mode
/// would overflow at those sizes.
void register_all() {
  const std::pair<const char*, std::size_t> sizes[] = {{"", 25}, {"/10k", 3'334}, {"/100k", 33'334}};
  for (const auto& [suffix, ops] : sizes) {
    for (const bool faults : {false, true}) {
      const std::string shape = faults ? "faults" : "clean";
      const std::pair<const char*, Mode> modes[] = {
          {"off", Mode::kOff}, {"stream", Mode::kStream}, {"posthoc", Mode::kPosthoc}};
      for (const auto& [name, mode] : modes) {
        if (mode == Mode::kPosthoc && ops != 25) continue;
        auto* b = ::benchmark::RegisterBenchmark(
            ("E11/streaming/" + shape + "/" + name + suffix).c_str(),
            [faults, mode, ops = ops](::benchmark::State& state) {
              Streaming(state, faults, mode, ops);
            });
        b->Unit(::benchmark::kMillisecond);
      }
    }
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace mocc::bench
