// trace_query — analysis CLI over causal span traces (obs/analysis.hpp,
// format produced by obs::write_trace_jsonl / bench_report --trace).
//
//   trace_query trace.jsonl                  # per-m-op phase report
//   trace_query --perfetto=out.json trace.jsonl   # Chrome/Perfetto export
//   trace_query --audit trace.jsonl          # rebuild the history from the
//                                            # trace, run the fast checker
//   trace_query --audit                      # in-process selftest sweep
//
// --condition=mlin|msc|mnorm picks the condition the file audit checks
// (default mlin). Exit status is the verdict: non-zero on truncated
// traces (dropped events or spans), malformed span forests, audit
// violations, or any selftest mismatch.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/system.hpp"
#include "core/relations.hpp"
#include "obs/analysis.hpp"
#include "obs/trace.hpp"
#include "protocols/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using mocc::core::Condition;
using mocc::obs::Forest;
using mocc::obs::MOpLatency;
using mocc::obs::TraceFile;

int fail(const std::string& message) {
  std::cerr << "trace_query: " << message << "\n";
  return 1;
}

void print_usage(const std::string& program) {
  std::cout << "usage: " << program << " [options] [trace.jsonl]\n"
            << "  (no flags)         per-m-operation critical-path report\n"
            << "  --perfetto=PATH    write Chrome/Perfetto trace_event JSON\n"
            << "  --audit [FILE]     rebuild the history from the trace and run\n"
            << "                     the fast checker; with no FILE, run the\n"
            << "                     in-process selftest sweep\n"
            << "  --condition=NAME   mlin (default) | msc | mnorm, for --audit\n"
            << "  --exact-budget=N   state budget for the exact checker when the\n"
            << "                     trace carries no abcast order (2PL runs);\n"
            << "                     0 skips it (default 1000000)\n";
}

std::optional<Condition> parse_condition(const std::string& name) {
  if (name == "mlin") return Condition::kMLinearizability;
  if (name == "msc" || name == "mseq") return Condition::kMSequentialConsistency;
  if (name == "mnorm") return Condition::kMNormality;
  return std::nullopt;
}

bool load_file(const std::string& path, TraceFile* trace, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  if (!mocc::obs::load_trace_jsonl(in, trace, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

/// Shared loud-failure gate: refuses truncated traces.
bool refuse_truncated(const TraceFile& trace, bool require_header, int* exit_code) {
  const std::string reason = mocc::obs::truncation_reason(trace, require_header);
  if (reason.empty()) return false;
  *exit_code = fail(reason);
  return true;
}

int run_report(const TraceFile& trace) {
  int exit_code = 0;
  if (refuse_truncated(trace, /*require_header=*/false, &exit_code)) return exit_code;
  Forest forest;
  std::string error;
  if (!mocc::obs::build_forest(trace, &forest, &error)) return fail(error);
  const std::vector<MOpLatency> mops = mocc::obs::attribute_latency(forest);

  std::cout << "events: " << trace.events.size() << " retained";
  if (trace.has_header) std::cout << " (" << trace.events_dropped << " dropped)";
  std::cout << ", spans: " << trace.spans.size() << " retained";
  if (trace.has_header) std::cout << " (" << trace.spans_dropped << " dropped)";
  std::cout << "\n";
  std::size_t rootless = 0;
  for (const auto& tree : forest.traces) {
    if (!tree.root.has_value()) ++rootless;
  }
  std::cout << "completed m-operations: " << mops.size()
            << ", in-flight traces: " << rootless << "\n\n";

  mocc::util::Table table({"trace", "mop", "proc", "class", "latency", "queue",
                           "agree", "lock", "net"});
  mocc::obs::PhaseBreakdown totals;
  for (const MOpLatency& mop : mops) {
    table.add_row({mocc::util::Table::num(mop.trace_id),
                   mocc::util::Table::num(mop.mop_id),
                   mocc::util::Table::num(std::uint64_t{mop.process}),
                   mop.is_update ? "update" : "query",
                   mocc::util::Table::num(mop.respond - mop.invoke),
                   mocc::util::Table::num(mop.phases.queue),
                   mocc::util::Table::num(mop.phases.agree),
                   mocc::util::Table::num(mop.phases.lock),
                   mocc::util::Table::num(mop.phases.net)});
    totals.queue += mop.phases.queue;
    totals.agree += mop.phases.agree;
    totals.lock += mop.phases.lock;
    totals.net += mop.phases.net;
  }
  std::cout << table.render();
  const std::uint64_t grand = totals.total();
  auto pct = [grand](std::uint64_t part) {
    return grand == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                  static_cast<double>(grand);
  };
  std::cout << "\ncritical-path total: " << grand << " ticks"
            << "  queue " << totals.queue << " (" << pct(totals.queue) << "%)"
            << "  agree " << totals.agree << " (" << pct(totals.agree) << "%)"
            << "  lock " << totals.lock << " (" << pct(totals.lock) << "%)"
            << "  net " << totals.net << " (" << pct(totals.net) << "%)\n";
  return 0;
}

int run_perfetto(const TraceFile& trace, const std::string& out_path) {
  int exit_code = 0;
  if (refuse_truncated(trace, /*require_header=*/false, &exit_code)) return exit_code;
  std::ofstream out(out_path, std::ios::binary);
  if (!out) return fail("cannot open " + out_path + " for writing");
  mocc::obs::write_perfetto_json(out, trace);
  std::cout << "wrote " << trace.events.size() << " events and "
            << trace.spans.size() << " spans to " << out_path << "\n";
  return 0;
}

int run_audit_file(const TraceFile& trace, Condition condition,
                   std::uint64_t exact_budget) {
  int exit_code = 0;
  if (refuse_truncated(trace, /*require_header=*/true, &exit_code)) return exit_code;
  Forest forest;
  std::string error;
  if (!mocc::obs::build_forest(trace, &forest, &error)) return fail(error);
  const mocc::obs::TraceAudit audit =
      mocc::obs::audit_from_trace(trace, condition, exact_budget);
  std::cout << "audit: " << audit.mops << " m-operations rebuilt from trace: "
            << audit.detail << "\n";
  return audit.ok ? 0 : 1;
}

/// One selftest point: run the system with a sink attached, round-trip
/// the trace through JSONL, and require (a) a drop-free well-formed
/// forest, (b) exact phase sums, (c) a rebuilt history equivalent to the
/// recorder's, (d) the same fast-check verdict the recorder yields.
bool selftest_point(const std::string& protocol, std::uint64_t seed, bool faults,
                    std::string* detail) {
  mocc::api::SystemConfig config;
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
  mocc::obs::RingBufferSink sink(std::size_t{1} << 18);
  mocc::api::System system(config);
  system.set_trace_sink(&sink);
  mocc::protocols::WorkloadParams params;
  params.ops_per_process = 6;
  params.update_ratio = 0.5;
  params.footprint = 2;
  system.run_workload(params);

  std::stringstream jsonl;
  mocc::obs::write_trace_jsonl(jsonl, sink);
  TraceFile trace;
  std::string error;
  if (!mocc::obs::load_trace_jsonl(jsonl, &trace, &error)) {
    *detail = "round-trip parse failed: " + error;
    return false;
  }
  const std::string reason = mocc::obs::truncation_reason(trace, true);
  if (!reason.empty()) {
    *detail = reason;
    return false;
  }
  Forest forest;
  if (!mocc::obs::build_forest(trace, &forest, &error)) {
    *detail = "forest: " + error;
    return false;
  }
  const std::vector<MOpLatency> mops = mocc::obs::attribute_latency(forest);
  for (const MOpLatency& mop : mops) {
    if (mop.phases.total() != mop.respond - mop.invoke) {
      std::ostringstream why;
      why << "m-operation " << mop.mop_id << " phases sum to "
          << mop.phases.total() << ", latency is " << mop.respond - mop.invoke;
      *detail = why.str();
      return false;
    }
  }
  if (mops.size() != system.history().size()) {
    std::ostringstream why;
    why << "trace shows " << mops.size() << " completed m-operations, recorder "
        << system.history().size();
    *detail = why.str();
    return false;
  }
  const mocc::obs::RebuiltExecution rebuilt = mocc::obs::rebuild_execution(
      trace, config.num_processes, config.num_objects);
  if (!rebuilt.history.has_value()) {
    *detail = "rebuild: " + rebuilt.error;
    return false;
  }
  if (!rebuilt.history->equivalent(system.history())) {
    *detail = "rebuilt history is not equivalent to the recorder's";
    return false;
  }
  const Condition condition = mocc::api::claimed_condition(protocol);
  const mocc::obs::TraceAudit audit = mocc::obs::audit_from_trace(trace, condition);
  if (system.supports_audit()) {
    if (!audit.fast.has_value()) {
      *detail = "trace carried no abcast order for an auditable protocol";
      return false;
    }
    const mocc::core::FastCheckResult recorded = system.check_fast(condition);
    const bool recorded_ok =
        recorded.constraint_holds && recorded.legal && recorded.admissible;
    if (audit.ok != recorded_ok) {
      std::ostringstream why;
      why << "fast-check verdicts differ: trace says "
          << (audit.ok ? "admissible" : "violation") << ", recorder says "
          << (recorded_ok ? "admissible" : "violation");
      *detail = why.str();
      return false;
    }
  }
  *detail = audit.detail;
  return audit.ok;
}

int run_selftest() {
  const std::vector<std::string> protocols = {"mseq", "mlin", "locking"};
  const std::vector<std::uint64_t> seeds = {1, 7, 13};
  std::size_t ran = 0;
  std::size_t failed = 0;
  for (const std::string& protocol : protocols) {
    for (const std::uint64_t seed : seeds) {
      for (const bool faults : {false, true}) {
        std::string detail;
        const bool ok = selftest_point(protocol, seed, faults, &detail);
        ++ran;
        if (!ok) ++failed;
        std::cout << (ok ? "ok  " : "FAIL") << "  " << protocol << " seed="
                  << seed << (faults ? " faults=on " : " faults=off")
                  << "  " << detail << "\n";
      }
    }
  }
  std::cout << "selftest: " << (ran - failed) << "/" << ran << " passed\n";
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  mocc::util::CliArgs args(argc, argv);
  if (args.get_bool("help", false)) {
    print_usage(args.program_name());
    return 0;
  }
  const std::string audit = args.get_string("audit", "");
  const std::string perfetto = args.get_string("perfetto", "");
  const std::string condition_name = args.get_string("condition", "mlin");
  const auto exact_budget =
      static_cast<std::uint64_t>(args.get_int("exact-budget", 1'000'000));
  const auto unused = args.unused();
  if (!unused.empty()) {
    return fail("unknown flag --" + unused.front() + " (try --help)");
  }
  const std::optional<Condition> condition = parse_condition(condition_name);
  if (!condition.has_value()) {
    return fail("unknown condition '" + condition_name +
                "' (expected mlin, msc, or mnorm)");
  }

  // `--audit FILE` parses as audit=FILE; a bare `--audit` as audit=true.
  std::string input;
  if (!args.positional().empty()) input = args.positional().front();
  if (audit == "true" && input.empty()) return run_selftest();
  if (!audit.empty() && audit != "true") input = audit;
  if (input.empty()) {
    print_usage(args.program_name());
    return 2;
  }

  TraceFile trace;
  std::string error;
  if (!load_file(input, &trace, &error)) return fail(error);
  if (!audit.empty()) return run_audit_file(trace, *condition, exact_budget);
  if (!perfetto.empty()) return run_perfetto(trace, perfetto);
  return run_report(trace);
}
