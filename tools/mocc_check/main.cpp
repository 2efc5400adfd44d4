// mocc_check — exhaustive small-scope schedule exploration (src/check).
//
//   mocc_check                               # explore one config (flags below)
//   mocc_check --mutation=seq-swap --out=cx.txt --trace=cx.jsonl
//                                            # find + save a counterexample
//   mocc_check --replay cx.txt               # re-judge a saved schedule
//   mocc_check --sweep                       # 3 protocols x 2 scopes, clean
//   mocc_check --compare                     # DPOR vs naive enumeration
//   mocc_check --selftest                    # seeded mutations must be caught
//
// Exit status: 0 = explored clean (or replayed admissible), 1 = violation
// found (or replayed violation), 2 = incomplete/diverged/usage error.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/explore.hpp"
#include "check/replay.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using mocc::check::Counterexample;
using mocc::check::ExploreConfig;
using mocc::check::ExploreResult;
using mocc::check::ReplayResult;

int fail(const std::string& message) {
  std::cerr << "mocc_check: " << message << "\n";
  return 2;
}

void print_usage(const std::string& program) {
  std::cout
      << "usage: " << program << " [mode] [options]\n"
      << "modes:\n"
      << "  (default)            explore one configuration exhaustively\n"
      << "  --replay FILE        re-execute a saved counterexample\n"
      << "  --sweep              exhaust the documented small scopes for\n"
      << "                       mseq, mlin and locking (expect: clean)\n"
      << "  --compare            same config with and without reduction;\n"
      << "                       report the DPOR pruning ratio\n"
      << "  --selftest           explore seeded protocol mutations; each\n"
      << "                       must yield a replayable counterexample\n"
      << "config options (explore/compare):\n"
      << "  --protocol=NAME      mseq (default) | mlin | mlin-narrow |\n"
      << "                       mlin-bcastq | locking | aggregate\n"
      << "  --broadcast=NAME     sequencer (default) | isis\n"
      << "  --mutation=NAME      seq-swap | skip-delivery | early-release\n"
      << "  --batch              explore with hot-path batching on\n"
      << "                       (sequencer group-commit + mlin query\n"
      << "                       rounds; also honored by --sweep)\n"
      << "  --processes=N --objects=N --ops=N   scope (default 2/2/2)\n"
      << "  --max-schedules=N --max-depth=N     exploration budgets\n"
      << "  --no-sleep-sets --no-state-hash     disable a reduction\n"
      << "  --history-only       skip protocol-internal (P5.x) findings;\n"
      << "                       stop only on history-level violations\n"
      << "  --hash-bits=N        mask the primary state hash (test knob)\n"
      << "output options:\n"
      << "  --out=FILE           write the counterexample replay file\n"
      << "  --trace=FILE         write the violating schedule's causal-span\n"
      << "                       trace (JSONL for trace_query --audit)\n";
}

ExploreConfig config_from_flags(const mocc::util::CliArgs& args) {
  ExploreConfig config;
  config.num_processes = static_cast<std::size_t>(
      args.get_int("processes", static_cast<std::int64_t>(config.num_processes)));
  config.num_objects = static_cast<std::size_t>(
      args.get_int("objects", static_cast<std::int64_t>(config.num_objects)));
  config.ops_per_process = static_cast<std::size_t>(
      args.get_int("ops", static_cast<std::int64_t>(config.ops_per_process)));
  config.protocol = args.get_string("protocol", config.protocol);
  config.broadcast = args.get_string("broadcast", config.broadcast);
  config.mutation = args.get_string("mutation", config.mutation);
  config.batching = args.get_bool("batch", false);
  config.max_schedules = static_cast<std::uint64_t>(args.get_int(
      "max-schedules", static_cast<std::int64_t>(config.max_schedules)));
  config.max_depth = static_cast<std::size_t>(
      args.get_int("max-depth", static_cast<std::int64_t>(config.max_depth)));
  config.use_sleep_sets = !args.get_bool("no-sleep-sets", false);
  config.use_state_hash = !args.get_bool("no-state-hash", false);
  config.history_violations_only = args.get_bool("history-only", false);
  config.hash_bits =
      static_cast<unsigned>(args.get_int("hash-bits", config.hash_bits));
  return config;
}

std::string scope_label(const ExploreConfig& config) {
  std::ostringstream out;
  out << config.protocol;
  if (!config.mutation.empty()) out << "+" << config.mutation;
  if (config.batching) out << "+batch";
  out << " " << config.num_processes << "p/" << config.num_objects << "o/"
      << config.ops_per_process << "ops";
  return out.str();
}

void print_stats(const ExploreResult& result) {
  const mocc::check::ExploreStats& s = result.stats;
  std::cout << "runs: " << s.runs_total << " (" << s.schedules_checked
            << " terminal schedules checked)\n"
            << "pruned: " << s.sleep_pruned << " sleep-set branches, "
            << s.hash_pruned << " revisited states\n"
            << "choice points: " << s.choice_points
            << ", max depth: " << s.max_depth_seen << " ("
            << s.depth_truncations << " truncations)\n"
            << "distinct states: " << s.distinct_states << " ("
            << s.hash_collisions << " primary-hash collisions)\n";
  if (s.audit_only_violations != 0) {
    std::cout << "skipped " << s.audit_only_violations
              << " protocol-internal (P5.x) findings (--history-only)\n";
  }
}

/// Writes the --out / --trace artifacts for a found counterexample.
/// The trace comes from a verifying replay, so what lands in the file is
/// exactly the schedule the checkers condemned.
int write_artifacts(const Counterexample& counterexample,
                    const std::string& out_path, const std::string& trace_path) {
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) return fail("cannot open " + out_path);
    out << mocc::check::format_counterexample(counterexample);
    std::cout << "counterexample written to " << out_path << "\n";
  }
  if (!trace_path.empty()) {
    mocc::obs::RingBufferSink sink(1 << 20);
    const ReplayResult replayed = mocc::check::replay(counterexample, &sink);
    if (!replayed.faithful) {
      return fail("counterexample failed to replay: " + replayed.divergence);
    }
    std::ofstream out(trace_path, std::ios::binary);
    if (!out) return fail("cannot open " + trace_path);
    mocc::obs::write_trace_jsonl(out, sink);
    std::cout << "violating schedule's trace written to " << trace_path
              << "\n";
  }
  return 0;
}

int run_explore(const mocc::util::CliArgs& args) {
  const ExploreConfig config = config_from_flags(args);
  const std::string out_path = args.get_string("out", "");
  const std::string trace_path = args.get_string("trace", "");
  std::cout << "exploring " << scope_label(config) << "\n";
  const ExploreResult result = mocc::check::explore(config);
  print_stats(result);
  if (result.violation.has_value()) {
    std::cout << "VIOLATION after " << result.stats.schedules_checked
              << " schedules: " << result.violation->reason << "\n"
              << "schedule: " << result.violation->choices.size()
              << " choices\n";
    const int artifact_status =
        write_artifacts(*result.violation, out_path, trace_path);
    return artifact_status != 0 ? artifact_status : 1;
  }
  if (!result.complete) {
    std::cout << "INCOMPLETE: budget exhausted before the schedule space\n";
    return 2;
  }
  std::cout << "complete: no admissibility violation on any schedule\n";
  return 0;
}

int run_sweep(const mocc::util::CliArgs& args) {
  const std::uint64_t max_schedules = static_cast<std::uint64_t>(
      args.get_int("max-schedules", 1 << 20));
  const bool batching = args.get_bool("batch", false);
  struct Scope {
    std::size_t processes, objects, ops;
  };
  const std::vector<std::string> protocols = {"mseq", "mlin", "locking"};
  const std::vector<Scope> scopes = {{2, 2, 2}, {3, 2, 2}};
  mocc::util::Table table(
      {"config", "runs", "checked", "sleep-pruned", "state-pruned", "verdict"});
  int status = 0;
  for (const std::string& protocol : protocols) {
    for (const Scope& scope : scopes) {
      ExploreConfig config;
      config.protocol = protocol;
      config.num_processes = scope.processes;
      config.num_objects = scope.objects;
      config.ops_per_process = scope.ops;
      config.max_schedules = max_schedules;
      config.batching = batching;
      const ExploreResult result = mocc::check::explore(config);
      std::string verdict = "clean";
      if (result.violation.has_value()) {
        verdict = "VIOLATION";
        status = 1;
        std::cerr << "mocc_check: " << scope_label(config) << ": "
                  << result.violation->reason << "\n";
      } else if (!result.complete) {
        verdict = "incomplete";
        if (status == 0) status = 2;
      }
      table.add_row({scope_label(config),
                     mocc::util::Table::num(result.stats.runs_total),
                     mocc::util::Table::num(result.stats.schedules_checked),
                     mocc::util::Table::num(result.stats.sleep_pruned),
                     mocc::util::Table::num(result.stats.hash_pruned),
                     verdict});
    }
  }
  std::cout << table.render();
  if (status == 0) {
    std::cout << "sweep clean: every schedule of every config admissible\n";
  }
  return status;
}

int run_compare(const mocc::util::CliArgs& args) {
  ExploreConfig reduced = config_from_flags(args);
  reduced.use_sleep_sets = true;
  reduced.use_state_hash = true;
  ExploreConfig naive = reduced;
  naive.use_sleep_sets = false;
  naive.use_state_hash = false;

  std::cout << "config: " << scope_label(reduced) << "\n";
  const ExploreResult naive_result = mocc::check::explore(naive);
  std::cout << "naive enumeration: " << naive_result.stats.runs_total
            << " runs ("
            << (naive_result.complete ? "complete" : "BUDGET EXHAUSTED")
            << ")\n";
  const ExploreResult reduced_result = mocc::check::explore(reduced);
  std::cout << "sleep sets + state hash: " << reduced_result.stats.runs_total
            << " runs ("
            << (reduced_result.complete ? "complete" : "BUDGET EXHAUSTED")
            << ")\n";
  if (naive_result.violation.has_value() !=
      reduced_result.violation.has_value()) {
    // Exit 1 (a found defect), distinct from 2 (budget exhaustion): a
    // bounded CI compare must still hard-fail on an unsound reduction.
    std::cout << "reduction changed the verdict - DPOR UNSOUND\n";
    return 1;
  }
  if (reduced_result.stats.runs_total == 0) return fail("no runs executed");
  const double ratio = static_cast<double>(naive_result.stats.runs_total) /
                       static_cast<double>(reduced_result.stats.runs_total);
  std::cout << "reduction: " << ratio << "x fewer runs\n";
  return naive_result.complete && reduced_result.complete ? 0 : 2;
}

int run_replay_file(const mocc::util::CliArgs& args, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Counterexample counterexample;
  std::string error;
  if (!mocc::check::parse_counterexample(buffer.str(), counterexample, error)) {
    return fail(path + ": " + error);
  }
  std::cout << "replaying " << scope_label(counterexample.config) << " ("
            << counterexample.choices.size() << " choices)\n";
  if (!counterexample.reason.empty()) {
    std::cout << "recorded reason: " << counterexample.reason << "\n";
  }

  const std::string trace_path = args.get_string("trace", "");
  mocc::obs::RingBufferSink sink(1 << 20);
  const ReplayResult result = mocc::check::replay(
      counterexample, trace_path.empty() ? nullptr : &sink);
  if (!result.divergence.empty()) return fail(result.divergence);
  if (!trace_path.empty()) {
    std::ofstream out(trace_path, std::ios::binary);
    if (!out) return fail("cannot open " + trace_path);
    mocc::obs::write_trace_jsonl(out, sink);
    std::cout << "trace written to " << trace_path << "\n";
  }
  if (!result.violation.empty()) {
    std::cout << "VIOLATION reproduced: " << result.violation << "\n";
    return 1;
  }
  std::cout << "schedule replayed admissible\n";
  return 0;
}

int run_selftest() {
  struct Case {
    const char* protocol;
    const char* broadcast;
    const char* mutation;
    std::size_t objects;
  };
  // seq-swap runs on one object: it swaps the labels of the FIRST two
  // broadcast positions, and the fixed workload's first two broadcasts
  // touch disjoint objects unless every op shares one — swapping
  // non-conflicting updates is (correctly) admissible. skip-delivery
  // also needs one object: mlin queries merge every replica's copy, so
  // at larger scopes the stale local copy is healed before any read
  // observes it and the mutation only dents protocol-internal
  // timestamps; with one object the victim replica's own next UPDATE
  // reads the lost write's object, breaking value coherence.
  const std::vector<Case> cases = {
      {"mseq", "sequencer", "seq-swap", 1},
      {"mlin", "sequencer", "skip-delivery", 1},
      {"locking", "sequencer", "early-release", 2},
  };
  int failures = 0;
  for (const Case& c : cases) {
    ExploreConfig config;
    config.protocol = c.protocol;
    config.broadcast = c.broadcast;
    config.mutation = c.mutation;
    config.num_objects = c.objects;
    const std::string label = scope_label(config);
    const ExploreResult result = mocc::check::explore(config);
    if (!result.violation.has_value()) {
      std::cout << "FAIL " << label << ": mutation not caught ("
                << result.stats.schedules_checked << " schedules, "
                << (result.complete ? "complete" : "incomplete") << ")\n";
      ++failures;
      continue;
    }
    // Round-trip through the file format, then re-judge: the saved
    // artifact must reproduce the violation, not just describe it.
    const std::string text =
        mocc::check::format_counterexample(*result.violation);
    Counterexample parsed;
    std::string error;
    if (!mocc::check::parse_counterexample(text, parsed, error)) {
      std::cout << "FAIL " << label << ": counterexample round-trip: " << error
                << "\n";
      ++failures;
      continue;
    }
    const ReplayResult replayed = mocc::check::replay(parsed);
    if (!replayed.faithful) {
      std::cout << "FAIL " << label << ": " << replayed.divergence << "\n";
      ++failures;
      continue;
    }
    if (replayed.violation.empty()) {
      std::cout << "FAIL " << label
                << ": counterexample replayed admissible\n";
      ++failures;
      continue;
    }
    // Each counterexample must be history-level: a rebuilt-from-trace
    // audit (trace_query --audit) has to reproduce it, not just the
    // in-process protocol checks.
    if (!replayed.history_level) {
      std::cout << "FAIL " << label
                << ": violation is not history-level (a trace audit would "
                   "pass): "
                << replayed.violation << "\n";
      ++failures;
      continue;
    }
    std::cout << "PASS " << label << ": caught in "
              << result.stats.schedules_checked << " schedules, replayed: "
              << replayed.violation << "\n";
  }
  // Negative control: the correct protocols must explore clean, or the
  // positives above prove nothing.
  for (const char* protocol : {"mseq", "mlin", "locking"}) {
    ExploreConfig config;
    config.protocol = protocol;
    const ExploreResult result = mocc::check::explore(config);
    if (result.violation.has_value() || !result.complete) {
      std::cout << "FAIL " << scope_label(config)
                << ": clean protocol did not explore clean\n";
      ++failures;
    } else {
      std::cout << "PASS " << scope_label(config) << ": clean ("
                << result.stats.schedules_checked << " schedules)\n";
    }
  }
  if (failures != 0) {
    std::cout << failures << " selftest case(s) failed\n";
    return 1;
  }
  std::cout << "selftest passed: every seeded mutation yielded a replayable "
               "counterexample\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  mocc::util::CliArgs args(argc, argv);
  if (args.get_bool("help", false)) {
    print_usage(args.program_name());
    return 0;
  }

  int status = 0;
  if (args.get_bool("selftest", false)) {
    status = run_selftest();
  } else if (args.get_bool("sweep", false)) {
    status = run_sweep(args);
  } else if (args.get_bool("compare", false)) {
    status = run_compare(args);
  } else if (args.has("replay") || !args.positional().empty()) {
    const std::string path = args.has("replay")
                                 ? args.get_string("replay", "")
                                 : args.positional().front();
    status = run_replay_file(args, path);
  } else {
    status = run_explore(args);
  }

  const std::vector<std::string> unused = args.unused();
  if (!unused.empty()) {
    std::string message = "unknown flag(s):";
    for (const std::string& flag : unused) message += " --" + flag;
    return fail(message);
  }
  return status;
}
