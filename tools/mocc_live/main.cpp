// mocc_live — progress/health console over streaming-audit time series
// (obs/timeseries.hpp, lines produced by obs::TimeSeriesWriter).
//
//   mocc_live series.jsonl            # render the stream as a report
//   mocc_live --follow series.jsonl   # tail the file as a run streams it
//   mocc_live --demo                  # in-process run streaming into
//                                     # mocc_live_demo.jsonl, then report
//   mocc_live --demo --mutation=skip-delivery --objects=1   # failure demo
//   mocc_live --selftest              # live-vs-post-hoc agreement sweep
//
// The report shows throughput (m-operations per 1000 time units between
// samples), streaming-audit window verdicts, and trace-sink drop
// accounting. Exit status mirrors the stream's final audit_verdict
// gauge: 0 ok, 1 violation, 3 inconclusive (2 is reserved for usage
// errors, matching the other CLIs).
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/system.hpp"
#include "core/relations.hpp"
#include "obs/analysis.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "protocols/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using mocc::core::Condition;
using mocc::obs::StreamVerdict;
using mocc::obs::TimeSeriesFile;
using mocc::obs::TimeSeriesPoint;

int fail(const std::string& message) {
  std::cerr << "mocc_live: " << message << "\n";
  return 2;
}

void print_usage(const std::string& program) {
  std::cout
      << "usage: " << program << " [options] [series.jsonl]\n"
      << "  (no flags)         render the time-series stream as a report\n"
      << "  --follow           tail the file: render samples as they land,\n"
      << "                     exit once the stream idles (see --max-idle)\n"
      << "  --max-idle=SEC     --follow exits after SEC seconds without new\n"
      << "                     samples (default 10)\n"
      << "  --demo             run an in-process simulation that streams to\n"
      << "                     --out while a StreamingAuditor watches it\n"
      << "  --out=PATH         --demo stream path (default mocc_live_demo.jsonl)\n"
      << "  --protocol=NAME    --demo protocol (default mlin)\n"
      << "  --broadcast=NAME   --demo broadcast: sequencer (default) | isis\n"
      << "  --mutation=NAME    --demo protocol mutation (must be caught)\n"
      << "  --window=N         --demo streaming window (default 512)\n"
      << "  --objects=N        --demo object count (default 8)\n"
      << "  --ops=N            --demo m-operations per process (default 40)\n"
      << "  --seed=N           --demo seed (default 42)\n"
      << "  --selftest         live-vs-post-hoc agreement sweep (clean runs\n"
      << "                     must agree, mutated runs must be caught)\n";
}

std::string verdict_cell(double verdict) {
  if (verdict == 0.0) return "ok";
  if (verdict == 1.0) return "VIOLATION";
  return "inconclusive";
}

/// Renders points [from, points.size()) as table rows; returns the
/// rendered row count. Throughput is measured between consecutive
/// samples (m-operations per 1000 time units — per-second when the
/// producer stamps wallclock milliseconds, per-kilotick under virtual
/// time).
std::size_t render_points(const TimeSeriesFile& series, std::size_t from,
                          bool header) {
  mocc::util::Table table({"seq", "t", "mops", "ops/kt", "win ok", "win fail",
                           "win undec", "drops", "verdict"});
  for (std::size_t i = from; i < series.points.size(); ++i) {
    const TimeSeriesPoint& p = series.points[i];
    double rate = 0.0;
    if (i > 0) {
      const TimeSeriesPoint& prev = series.points[i - 1];
      const double dt = static_cast<double>(p.t - prev.t);
      const double dm = p.value("counters/audit_mops") -
                        prev.value("counters/audit_mops");
      if (dt > 0.0) rate = 1000.0 * dm / dt;
    }
    const double drops = p.value("counters/trace_events_dropped") +
                         p.value("counters/trace_spans_dropped");
    table.add_row({mocc::util::Table::num(p.seq),
                   mocc::util::Table::num(p.t),
                   mocc::util::Table::num(p.value("counters/audit_mops"), 0),
                   mocc::util::Table::num(rate),
                   mocc::util::Table::num(p.value("counters/audit_windows_passed"), 0),
                   mocc::util::Table::num(p.value("counters/audit_windows_failed"), 0),
                   mocc::util::Table::num(p.value("counters/audit_windows_undecided"), 0),
                   mocc::util::Table::num(drops, 0),
                   verdict_cell(p.value("gauges/audit_verdict"))});
  }
  if (from >= series.points.size()) return 0;
  std::string rendered = table.render();
  if (!header) {
    // Tail mode re-renders only new rows: drop the header + rule lines.
    std::size_t cut = 0;
    for (int lines = 0; lines < 2 && cut != std::string::npos; ++lines) {
      cut = rendered.find('\n', cut);
      if (cut != std::string::npos) ++cut;
    }
    if (cut != std::string::npos) rendered = rendered.substr(cut);
  }
  std::cout << rendered;
  return series.points.size() - from;
}

/// Health summary from the final sample; returns the exit code.
int summarize(const TimeSeriesFile& series) {
  if (series.points.empty()) {
    std::cout << "stream is empty (no samples)\n";
    return 3;
  }
  const TimeSeriesPoint& last = series.points.back();
  const double verdict = last.value("gauges/audit_verdict");
  const double dropped = last.value("counters/trace_events_dropped") +
                         last.value("counters/trace_spans_dropped");
  std::cout << "\nstream health: " << series.points.size() << " samples, "
            << last.value("counters/audit_mops") << " m-operations audited, "
            << last.value("counters/audit_windows") << " windows ("
            << last.value("counters/audit_windows_passed") << " ok, "
            << last.value("counters/audit_windows_failed") << " failed, "
            << last.value("counters/audit_windows_undecided") << " undecided), "
            << dropped << " sink drops\n"
            << "final verdict: " << verdict_cell(verdict) << "\n";
  if (verdict == 1.0) return 1;
  if (verdict != 0.0) return 3;
  return 0;
}

bool load_file(const std::string& path, TimeSeriesFile* series,
               std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  if (!mocc::obs::load_timeseries_jsonl(in, series, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

int run_report(const std::string& path) {
  TimeSeriesFile series;
  std::string error;
  if (!load_file(path, &series, &error)) return fail(error);
  if (!series.has_header && !series.points.empty()) {
    return fail(path + ": samples without a ts_header line");
  }
  render_points(series, 0, /*header=*/true);
  return summarize(series);
}

int run_follow(const std::string& path, std::int64_t max_idle_seconds) {
  // Polling tail: reload and render only unseen samples. The producer
  // appends whole lines, so a reload mid-write at worst defers the last
  // sample to the next poll (the loader fails only on malformed lines,
  // and a torn final line without '\n' is not parsed as a line yet...
  // to stay robust we simply retry on load errors while following).
  std::size_t seen = 0;
  bool printed_header = false;
  auto last_growth = std::chrono::steady_clock::now();
  for (;;) {
    TimeSeriesFile series;
    std::string error;
    if (load_file(path, &series, &error)) {
      if (series.points.size() > seen) {
        render_points(series, printed_header ? seen : 0, !printed_header);
        printed_header = true;
        seen = series.points.size();
        last_growth = std::chrono::steady_clock::now();
        const double verdict =
            series.points.back().value("gauges/audit_verdict");
        if (verdict == 1.0) return summarize(series);
      }
    }
    const auto idle = std::chrono::steady_clock::now() - last_growth;
    if (idle > std::chrono::seconds(max_idle_seconds)) {
      TimeSeriesFile final_series;
      if (!load_file(path, &final_series, &error)) return fail(error);
      if (!printed_header) render_points(final_series, 0, true);
      return summarize(final_series);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

struct DemoOptions {
  std::string out = "mocc_live_demo.jsonl";
  std::string protocol = "mlin";
  std::string broadcast = "sequencer";
  std::string mutation;
  std::size_t objects = 8;
  std::size_t ops = 40;
  std::size_t window = 0;  // 0 = auditor default
  std::uint64_t seed = 42;
};

/// End-to-end wiring demo: System streams registry samples on its
/// backlog probe cadence while the StreamingAuditor audits the trace
/// tap; the auditor publishes its progress into the sampled registry
/// through a collector. Then the written file is rendered like any
/// other stream.
int run_demo(const DemoOptions& demo) {
  mocc::api::SystemConfig config;
  config.protocol = demo.protocol;
  config.broadcast = demo.broadcast;
  config.num_processes = 3;
  config.num_objects = demo.objects;
  config.delay = "lan";
  config.seed = demo.seed;
  config.mutation = demo.mutation;
  config.backlog_sample_interval = 16;

  mocc::obs::StreamingAuditorOptions live_options;
  live_options.condition = mocc::api::claimed_condition(demo.protocol);
  if (demo.window != 0) live_options.window = demo.window;
  mocc::obs::StreamingAuditor auditor(live_options);

  std::ofstream out(demo.out, std::ios::binary | std::ios::trunc);
  if (!out) return fail("cannot open " + demo.out + " for writing");
  mocc::obs::Registry registry;
  mocc::obs::TimeSeriesWriter writer(out);
  writer.add_collector(
      [&auditor](mocc::obs::Registry& r) { auditor.export_metrics(r); });

  mocc::api::System system(config);
  system.set_trace_sink(&auditor);
  system.set_metrics_registry(&registry);
  system.set_timeseries(&writer);
  auditor.set_violation_callback(
      [&system](const mocc::obs::StreamingReport&) { system.request_stop(); });

  mocc::protocols::WorkloadParams workload;
  workload.ops_per_process = demo.ops;
  workload.update_ratio = 0.5;
  workload.footprint = 2;
  system.run_workload(workload);

  const mocc::obs::StreamingReport& report = auditor.finish();
  auditor.export_metrics(registry);
  writer.sample(registry, system.now());
  out.flush();

  std::cout << "demo: " << demo.protocol
            << (demo.mutation.empty() ? "" : " mutation=" + demo.mutation)
            << " seed=" << demo.seed << " -> " << demo.out << "\n"
            << "streaming audit: " << report.to_string() << "\n\n";
  return run_report(demo.out);
}

/// One selftest run: live auditor on the trace tap, ring sink
/// downstream, then the post-hoc trace audit over the same JSONL
/// round-trip trace_query uses.
struct SelftestRun {
  StreamVerdict live = StreamVerdict::kOk;
  std::size_t live_mops = 0;
  bool posthoc_ok = false;
  std::size_t posthoc_mops = 0;
  std::string detail;
};

SelftestRun selftest_run(const std::string& protocol,
                         const std::string& broadcast,
                         const std::string& mutation, std::size_t objects,
                         std::uint64_t seed) {
  mocc::api::SystemConfig config;
  config.protocol = protocol;
  config.broadcast = broadcast;
  config.num_processes = 3;
  config.num_objects = objects;
  config.delay = "lan";
  config.seed = seed;
  config.mutation = mutation;

  const Condition condition = mocc::api::claimed_condition(protocol);
  mocc::obs::StreamingAuditorOptions live_options;
  live_options.condition = condition;
  live_options.window = 8;  // several cuts even on small runs
  mocc::obs::StreamingAuditor auditor(live_options);
  mocc::obs::RingBufferSink ring(std::size_t{1} << 18);
  auditor.set_downstream(&ring);

  mocc::api::System system(config);
  system.set_trace_sink(&auditor);
  mocc::protocols::WorkloadParams workload;
  workload.ops_per_process = 8;
  workload.update_ratio = 0.5;
  workload.footprint = 2;
  system.run_workload(workload);

  SelftestRun run;
  run.live = auditor.finish().verdict;
  run.live_mops = auditor.report().mops;
  run.detail = auditor.report().detail;

  std::stringstream jsonl;
  mocc::obs::write_trace_jsonl(jsonl, ring);
  mocc::obs::TraceFile trace;
  std::string error;
  if (!mocc::obs::load_trace_jsonl(jsonl, &trace, &error)) {
    run.posthoc_ok = false;
    run.detail = "trace round-trip failed: " + error;
    return run;
  }
  const mocc::obs::TraceAudit audit =
      mocc::obs::audit_from_trace(trace, condition);
  run.posthoc_ok = audit.ok;
  run.posthoc_mops = audit.mops;
  if (!audit.ok && run.detail.empty()) run.detail = audit.detail;
  return run;
}

int run_selftest() {
  std::size_t failed = 0;
  const auto report = [&failed](bool ok, const std::string& label,
                                const std::string& detail) {
    if (!ok) ++failed;
    std::cout << (ok ? "ok  " : "FAIL") << "  " << label;
    if (!detail.empty()) std::cout << "  " << detail;
    std::cout << "\n";
  };

  // Clean runs: the live verdict must be ok (drops cannot occur — the
  // auditor sees every event) and must agree with the post-hoc trace
  // audit, over the same m-operation count. Both broadcast algorithms
  // run for the abcast protocols (locking ignores the knob).
  for (const std::string protocol : {"mseq", "mlin", "locking"}) {
    for (const std::uint64_t seed : {1ull, 7ull, 13ull}) {
      const bool abcast = protocol != "locking";
      for (const std::string& broadcast :
           abcast ? std::vector<std::string>{"sequencer", "isis"}
                  : std::vector<std::string>{"sequencer"}) {
        const SelftestRun run = selftest_run(protocol, broadcast, "", 8, seed);
        std::ostringstream label;
        label << "clean " << protocol << "/" << broadcast << " seed=" << seed;
        const bool ok = run.live == StreamVerdict::kOk && run.posthoc_ok &&
                        run.live_mops == run.posthoc_mops;
        std::ostringstream detail;
        detail << "live=" << mocc::obs::to_string(run.live)
               << " posthoc=" << (run.posthoc_ok ? "ok" : "violation")
               << " mops=" << run.live_mops << "/" << run.posthoc_mops;
        if (!ok && !run.detail.empty()) detail << "  " << run.detail;
        report(ok, label.str(), detail.str());
      }
    }
  }

  // Mutated runs: soundness per run (a live violation implies the
  // post-hoc audit also rejects — the window projection never invents
  // violations), and at least one mid-stream catch across the seeds so
  // the leg cannot pass vacuously. seq-swap is excluded here: its
  // random-schedule manifestations are usually protocol-internal
  // timestamp violations (P5.3/P5.4), invisible at the history level
  // both these checkers audit (mocc_check finds its history-level
  // schedules by exhaustive search).
  for (const std::string protocol : {"mseq", "mlin"}) {
    std::size_t caught = 0;
    std::size_t runs = 0;
    bool sound = true;
    std::string unsound_detail;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const std::string broadcast = seed % 2 == 1 ? "sequencer" : "isis";
      const SelftestRun run =
          selftest_run(protocol, broadcast, "skip-delivery", 1, seed);
      ++runs;
      if (run.live == StreamVerdict::kViolation) {
        ++caught;
        if (run.posthoc_ok) {
          sound = false;
          unsound_detail = "seed " + std::to_string(seed) +
                           " flagged live but passes post-hoc: " + run.detail;
        }
      }
    }
    std::ostringstream label;
    label << "mutated " << protocol << "/skip-delivery";
    std::ostringstream detail;
    detail << caught << "/" << runs << " caught live";
    if (!sound) detail << "  " << unsound_detail;
    report(sound && caught > 0, label.str(), detail.str());
  }

  std::cout << "selftest: " << (failed == 0 ? "passed" : "FAILED") << "\n";
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  mocc::util::CliArgs args(argc, argv);
  if (args.get_bool("help", false)) {
    print_usage(args.program_name());
    return 0;
  }
  const bool selftest = args.get_bool("selftest", false);
  const bool demo = args.get_bool("demo", false);
  const bool follow = args.get_bool("follow", false);
  const std::int64_t max_idle = args.get_int("max-idle", 10);
  DemoOptions demo_options;
  demo_options.out = args.get_string("out", demo_options.out);
  demo_options.protocol = args.get_string("protocol", demo_options.protocol);
  demo_options.broadcast = args.get_string("broadcast", demo_options.broadcast);
  demo_options.mutation = args.get_string("mutation", "");
  demo_options.window = static_cast<std::size_t>(args.get_int("window", 0));
  demo_options.objects = static_cast<std::size_t>(
      args.get_int("objects", static_cast<std::int64_t>(demo_options.objects)));
  demo_options.ops = static_cast<std::size_t>(
      args.get_int("ops", static_cast<std::int64_t>(demo_options.ops)));
  demo_options.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(demo_options.seed)));
  const auto unused = args.unused();
  if (!unused.empty()) {
    return fail("unknown flag --" + unused.front() + " (try --help)");
  }

  if (selftest) return run_selftest();
  if (demo) return run_demo(demo_options);
  if (args.positional().empty()) {
    print_usage(args.program_name());
    return 2;
  }
  const std::string path = args.positional().front();
  if (follow) return run_follow(path, max_idle);
  return run_report(path);
}
