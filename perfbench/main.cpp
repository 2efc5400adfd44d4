// Verified-throughput benchmark: produce histories with the simulator or
// the real-thread engine, get each one's admissibility verdict, and time
// both, end to end and per layer. README.md lists the workloads and
// metrics; run.py builds this program and runs it.
//
//   mocc_perfbench --workload sim-posthoc|sim-chaos-stream|exec-verify
//                  --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// Only calls into the public APIs are timed (api::System, core::*,
// obs::StreamingAuditor, exec::run / merge_logs / verify_execution); the
// spans of the traced run are recorded here, around those calls.
//
// Output: a "host" JSON line, then, as the last line, one JSON object
// with correct / attempted / failed / metrics / problems. --trace 0
// reports the end-to-end metrics. --trace 1 runs each input twice,
// untraced and traced, and reports every per-layer metric (0 for a layer
// the workload does not call).
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/system.hpp"
#include "cpu_rotation.hpp"
#include "exec/engine.hpp"
#include "exec/verify.hpp"
#include "obs/analysis.hpp"
#include "obs/live.hpp"
#include "sim/wire_kinds.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace {

using namespace mocc;
using perfbench::Clock;
using perfbench::CpuRotation;
using perfbench::seconds_between;
using perfbench::SpanRecorder;

// ---------------------------------------------------------------- shapes

// sim-posthoc: one long m-linearizable history, checked afterwards.
constexpr std::size_t kPosthocProcesses = 4;
constexpr std::size_t kPosthocObjects = 8;
constexpr std::size_t kPosthocOpsPerProcess = 1000;

// sim-chaos-stream: many short faulty histories under the streaming auditor.
constexpr std::size_t kChaosProcesses = 3;
constexpr std::size_t kChaosObjects = 6;
constexpr std::size_t kChaosOpsPerProcess = 40;
constexpr std::size_t kChaosWindow = 64;
constexpr double kChaosDropRate = 0.05;
constexpr double kChaosDuplicateRate = 0.05;

// exec-verify: the real-thread engine, verified with the audit on.
constexpr std::size_t kExecThreads = 4;  // at most nproc
constexpr std::size_t kExecObjects = 64;
constexpr std::size_t kExecMops = 25'000;

// Deterministic counts (virtual latencies, messages, windows) come from a
// fixed prefix of each run's histories, so they depend on the seed alone,
// not on how many histories the machine fits into --seconds.
constexpr std::size_t kPosthocCounted = 2;
constexpr std::size_t kChaosCounted = 200;
// A traced exec-verify run makes at least this many repetition pairs.
constexpr std::size_t kExecTracedReps = 2;
// Histories whose timings a run keeps (see loop()).
constexpr std::size_t kMaxSamples = 1024;
// Set-up of one simulated history takes microseconds: it is timed over
// rounds of kSetupBatch, one round per kSetupEvery of run time (see
// SetupTimer).
constexpr std::size_t kSetupBatch = 64;
constexpr std::chrono::milliseconds kSetupEvery{20};
// How long the measuring thread stays on one CPU (see cpu_rotation.hpp).
constexpr std::chrono::milliseconds kRotationPeriod{10};

// ---------------------------------------------------------------- helpers

std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Percentile of integer samples (ticks, retries), interpolated inside the
/// integer its rank falls in (v covers [v - 0.5, v + 0.5), the grouped-data
/// percentile). Nearest-rank on integers jumps a whole step when one
/// sample moves; this moves with the distribution.
double tick_percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double target = p / 100.0 * static_cast<double>(values.size());
  const double v = values[std::min(static_cast<std::size_t>(target), values.size() - 1)];
  const auto lo = std::lower_bound(values.begin(), values.end(), v) - values.begin();
  const auto hi = std::upper_bound(values.begin(), values.end(), v) - values.begin();
  return v - 0.5 + (target - static_cast<double>(lo)) / static_cast<double>(hi - lo);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Peak resident set of this process image. VmHWM restarts at exec;
/// getrusage's ru_maxrss would carry over the launching process's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Everything one run reports.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< empty = every verdict was ok
  std::vector<Metric> metrics;

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void problem(std::string what) {
    if (problems.size() < 16) problems.push_back(std::move(what));
  }
};

/// Wire-kind range totals of one simulation (sim/wire_kinds.hpp).
struct KindSplit {
  double link = 0;
  double abcast = 0;
  double protocols = 0;
};

KindSplit split_by_kind(const sim::TrafficStats& traffic) {
  KindSplit split;
  for (const auto& [kind, count] : traffic.messages_by_kind) {
    const auto n = static_cast<double>(count);
    if (kind >= sim::wire::kReliableLinkFirst && kind <= sim::wire::kReliableLinkLast) {
      split.link += n;
    } else if (kind >= sim::wire::kAbcastFirst && kind <= sim::wire::kAbcastLast) {
      split.abcast += n;
    } else if (kind >= sim::wire::kProtocolsFirst && kind <= sim::wire::kProtocolsLast) {
      split.protocols += n;
    }
  }
  return split;
}

// ------------------------------------------------------- simulated histories

/// One simulated history: what it produced, what its verdict was, and
/// where the wall time went.
struct SimHistory {
  std::string protocol;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::string failure;  ///< empty when the verdict is ok
  double run_s = 0;      ///< System::run_workload (the producer)
  double verdict_s = 0;  ///< producer end to final verdict
  double history_s = 0;
  double fast_check_s = 0;
  double audit_s = 0;
  double sink_s = 0;    ///< inside the auditor's on_event / on_span (traced)
  double finish_s = 0;  ///< StreamingAuditor::finish
  std::size_t windows = 0;
  protocols::WorkloadReport report;
  sim::TrafficStats traffic;
  fault::LinkStats link;
  sim::SimTime virtual_end = 0;
  std::vector<obs::Span> virtual_spans;  ///< teed program spans (traced chaos)

  double wall_s() const { return run_s + verdict_s; }
  void drop_counters() {
    report = {};
    traffic = {};
    virtual_spans = {};
  }
};

api::SystemConfig posthoc_config(std::uint64_t seed) {
  api::SystemConfig config;
  config.num_processes = kPosthocProcesses;
  config.num_objects = kPosthocObjects;
  config.protocol = "mlin";
  config.broadcast = "sequencer";
  config.delay = "lan";
  config.seed = seed;
  return config;
}

/// History `index` of a chaos run: protocols alternate mseq / mlin and
/// broadcasts sequencer / isis, so all four pairs recur every four.
api::SystemConfig chaos_config(std::uint64_t seed, std::size_t index) {
  api::SystemConfig config;
  config.num_processes = kChaosProcesses;
  config.num_objects = kChaosObjects;
  config.protocol = index % 2 == 0 ? "mseq" : "mlin";
  config.broadcast = (index / 2) % 2 == 0 ? "sequencer" : "isis";
  config.delay = "lan";
  config.seed = seed;
  config.reliable_link = true;
  config.faults.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  config.faults.default_link.drop_rate = kChaosDropRate;
  config.faults.default_link.duplicate_rate = kChaosDuplicateRate;
  return config;
}

obs::StreamingAuditorOptions chaos_auditor_options(const api::SystemConfig& config) {
  obs::StreamingAuditorOptions options;
  options.condition = config.protocol == "mseq" ? core::Condition::kMSequentialConsistency
                                                : core::Condition::kMLinearizability;
  options.window = kChaosWindow;
  return options;
}

/// setup_s of the simulated workloads: System construction, plus the
/// streaming auditor attached as trace sink on sim-chaos-stream. A round
/// sets up the Systems of histories 0..kSetupBatch-1 back to back. Rounds
/// run between the histories, one per kSetupEvery of run time, so that
/// they sample the host over the whole run as the histories do; the
/// median over the rounds of the time per System is reported.
class SetupTimer {
 public:
  SetupTimer(std::uint64_t seed, bool chaos) : chaos_(chaos), start_(Clock::now()) {
    for (std::size_t i = 0; i < kSetupBatch; ++i) {
      configs_.push_back(chaos ? chaos_config(mix(seed, i), i) : posthoc_config(mix(seed, i)));
    }
  }

  /// Runs the rounds that are due.
  void catch_up() {
    const auto due = static_cast<std::size_t>((Clock::now() - start_) / kSetupEvery) + 1;
    while (per_system_.size() < due) round();
  }

  double seconds_per_system() const { return median(per_system_); }

 private:
  void round() {
    struct Instance {
      std::unique_ptr<api::System> system;
      std::unique_ptr<obs::StreamingAuditor> auditor;
    };
    std::vector<Instance> batch(kSetupBatch);
    const Clock::time_point begin = Clock::now();
    for (std::size_t i = 0; i < kSetupBatch; ++i) {
      batch[i].system = std::make_unique<api::System>(configs_[i]);
      if (!chaos_) continue;
      batch[i].auditor =
          std::make_unique<obs::StreamingAuditor>(chaos_auditor_options(configs_[i]));
      batch[i].system->set_trace_sink(batch[i].auditor.get());
    }
    const Clock::time_point end = Clock::now();
    per_system_.push_back(seconds_between(begin, end) / static_cast<double>(kSetupBatch));
    for (Instance& instance : batch) instance.system->set_trace_sink(nullptr);
  }

  bool chaos_;
  Clock::time_point start_;
  std::vector<api::SystemConfig> configs_;
  std::vector<double> per_system_;
};

protocols::WorkloadParams workload_params(std::size_t ops_per_process) {
  protocols::WorkloadParams params;
  params.ops_per_process = ops_per_process;
  params.update_ratio = 0.5;
  params.footprint = 2;
  return params;
}

void collect_sim_counters(const api::System& system, SimHistory& out) {
  out.completed = out.report.queries + out.report.updates;
  out.traffic = system.traffic();
  out.link = system.link_stats();
  out.virtual_end = system.now();
}

/// sim-posthoc: run the closed loop, then System::check_fast(m-lin) and
/// System::audit() on the recorded history.
SimHistory run_posthoc(const api::SystemConfig& config, std::size_t ops_per_process,
                       std::uint64_t trace, SpanRecorder& spans) {
  SimHistory out;
  out.protocol = config.protocol;
  out.submitted = config.num_processes * ops_per_process;
  const Clock::time_point t0 = Clock::now();
  const std::uint32_t root = spans.open("history", "bench", trace, 0, t0);
  api::System system(config);
  const Clock::time_point t1 = Clock::now();
  out.report = system.run_workload(workload_params(ops_per_process));
  const Clock::time_point t2 = Clock::now();
  const core::History history = system.history();
  const Clock::time_point t3 = Clock::now();
  const core::FastCheckResult fast = system.check_fast(core::Condition::kMLinearizability);
  const Clock::time_point t4 = Clock::now();
  const core::AuditReport audit = system.audit();
  const Clock::time_point t5 = Clock::now();
  spans.add("setup", "setup", trace, root, t0, t1);
  spans.add("sim.run", "sim", trace, root, t1, t2);
  spans.add("protocols.history", "protocols", trace, root, t2, t3);
  spans.add("core.fast_check", "core", trace, root, t3, t4);
  spans.add("core.audit", "core", trace, root, t4, t5);
  spans.close(root, t5);

  out.run_s = seconds_between(t1, t2);
  out.history_s = seconds_between(t2, t3);
  out.fast_check_s = seconds_between(t3, t4);
  out.audit_s = seconds_between(t4, t5);
  out.verdict_s = seconds_between(t2, t5);
  collect_sim_counters(system, out);

  if (out.completed != out.submitted || history.size() != out.submitted) {
    out.failure = "incomplete history: " + std::to_string(out.completed) + "/" +
                  std::to_string(out.submitted) + " m-operations responded";
  } else if (!fast.constraint_holds || !fast.legal || !fast.admissible) {
    out.failure = "check_fast rejected: " + fast.detail;
  } else if (!audit.ok) {
    out.failure = "audit rejected: " + audit.to_string();
  }
  return out;
}

/// Forwards the simulator's trace to the streaming auditor and times each
/// call. A call that cuts a window gets its own span; the many small
/// ingest calls are summed.
class TimedSink final : public obs::TraceSink {
 public:
  TimedSink(obs::StreamingAuditor& auditor, SpanRecorder& spans, std::uint64_t trace)
      : auditor_(auditor), spans_(spans), trace_(trace) {}

  void set_parent(std::uint32_t parent) { parent_ = parent; }
  void on_event(const obs::TraceEvent& event) override {
    timed([&] { auditor_.on_event(event); });
  }
  void on_span(const obs::Span& span) override {
    timed([&] { auditor_.on_span(span); });
  }

  double ingest_s = 0;
  double cut_s = 0;

 private:
  template <typename Call>
  void timed(Call&& call) {
    const std::size_t windows = auditor_.report().windows;
    const Clock::time_point begin = Clock::now();
    call();
    const Clock::time_point end = Clock::now();
    if (auditor_.report().windows != windows) {
      cut_s += seconds_between(begin, end);
      spans_.add("obs.live.cut", "obs.live", trace_, parent_, begin, end);
    } else {
      ingest_s += seconds_between(begin, end);
    }
  }

  obs::StreamingAuditor& auditor_;
  SpanRecorder& spans_;
  std::uint64_t trace_;
  std::uint32_t parent_ = 0;
};

/// Keeps the program's virtual-time spans teed through the auditor.
class SpanTee final : public obs::TraceSink {
 public:
  void on_event(const obs::TraceEvent&) override {}
  void on_span(const obs::Span& span) override { spans.push_back(span); }
  std::vector<obs::Span> spans;
};

/// sim-chaos-stream: a StreamingAuditor (window 64) is the trace sink; the
/// verdict is its finish(). With `traced`, the sink calls are timed and
/// the program's virtual-time spans are teed downstream.
SimHistory run_chaos(const api::SystemConfig& config, std::size_t ops_per_process,
                     std::uint64_t trace, SpanRecorder& spans, bool traced) {
  SimHistory out;
  out.protocol = config.protocol;
  out.submitted = config.num_processes * ops_per_process;
  const Clock::time_point t0 = Clock::now();
  const std::uint32_t root = spans.open("history", "bench", trace, 0, t0);
  api::System system(config);
  obs::StreamingAuditor auditor(chaos_auditor_options(config));
  TimedSink timed(auditor, spans, trace);
  SpanTee tee;
  if (traced) {
    auditor.set_downstream(&tee);
    system.set_trace_sink(&timed);
  } else {
    system.set_trace_sink(&auditor);
  }
  const Clock::time_point t1 = Clock::now();
  const std::uint32_t run_span = spans.open("sim.run", "sim", trace, root, t1);
  timed.set_parent(run_span);
  out.report = system.run_workload(workload_params(ops_per_process));
  const Clock::time_point t2 = Clock::now();
  const obs::StreamingReport& live = auditor.finish();
  const Clock::time_point t3 = Clock::now();
  system.set_trace_sink(nullptr);
  spans.add("setup", "setup", trace, root, t0, t1);
  spans.close(run_span, t2);
  spans.add_hidden(run_span, "obs.live", timed.ingest_s);
  spans.add("obs.live.finish", "obs.live", trace, root, t2, t3);
  spans.close(root, t3);

  out.run_s = seconds_between(t1, t2);
  out.finish_s = seconds_between(t2, t3);
  out.verdict_s = out.finish_s;
  out.sink_s = timed.ingest_s + timed.cut_s;
  out.windows = live.windows;
  out.virtual_spans = std::move(tee.spans);
  collect_sim_counters(system, out);

  if (!live.ok()) {
    out.failure = "streaming verdict " + std::string(obs::to_string(live.verdict)) + ": " +
                  live.detail;
  } else if (out.completed != out.submitted) {
    out.failure = "incomplete history: " + std::to_string(out.completed) + "/" +
                  std::to_string(out.submitted) + " m-operations responded";
  } else if (!system.link_failures().empty()) {
    out.failure = "reliable-link sends exhausted their retry budget";
  }
  return out;
}

// ------------------------------------------------------------ exec engine

/// Notes when the engine emits its first event (a commit or an abort).
/// Workers call it concurrently; `at` is read after exec::run joins them.
class FirstEvent final : public obs::TraceSink {
 public:
  void on_event(const obs::TraceEvent&) override {
    if (!seen_.load(std::memory_order_relaxed) && !seen_.exchange(true)) at = Clock::now();
  }
  Clock::time_point at{};

 private:
  std::atomic<bool> seen_{false};
};

struct ExecRep {
  std::size_t submitted = 0;
  std::size_t completed = 0;  ///< committed m-operations
  std::string failure;
  double setup_s = 0;  ///< exec::run call to the engine's first event
  double run_s = 0;
  double verdict_s = 0;  ///< verify_execution
  double merge_s = 0;
  std::size_t windows = 0;
  exec::ExecStats stats;
  double retries_p99 = 0;

  double wall_s() const { return run_s + verdict_s; }
};

exec::ExecConfig exec_config(std::uint64_t seed) {
  exec::ExecConfig config;
  config.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                           kExecThreads);
  config.objects = kExecObjects;
  config.mops_per_thread = kExecMops / config.threads;
  config.footprint = 4;
  config.query_ratio = 0.4;
  config.rmw_ratio = 0.5;
  config.zipf_skew = 0.9;
  config.seed = seed;
  return config;
}

exec::VerifyOptions verify_options() {
  exec::VerifyOptions options;
  options.window = 512;
  options.run_audit = true;
  return options;
}

ExecRep run_exec(const exec::ExecConfig& config, std::uint64_t trace, SpanRecorder& spans,
                 CpuRotation& rotation) {
  ExecRep out;
  out.submitted = config.threads * config.mops_per_thread;
  // Set-up is timed from calling exec::run to the engine's first event
  // (store allocation, worker construction, thread start, one m-op).
  FirstEvent first;
  const Clock::time_point t0 = Clock::now();
  const std::uint32_t root = spans.open("repetition", "bench", trace, 0, t0);
  const exec::ExecResult result = [&] {
    const CpuRotation::Hold workers_on_every_cpu(rotation);
    return exec::run(config, &first);
  }();
  const Clock::time_point t1 = Clock::now();
  out.setup_s = first.at == Clock::time_point{} ? 0.0 : seconds_between(t0, first.at);
  const exec::VerifyReport report = exec::verify_execution(result, verify_options());
  const Clock::time_point t2 = Clock::now();
  // merge_logs is timed on its own for the layer table; the verdict above
  // merges internally, so this call is outside the verified wall time.
  const std::size_t merged = exec::merge_logs(result).size();
  const Clock::time_point t3 = Clock::now();
  spans.add("exec.run", "exec", trace, root, t0, t1);
  spans.add("exec.verify", "exec", trace, root, t1, t2);
  spans.add("exec.merge", "exec", trace, root, t2, t3);
  spans.close(root, t3);

  out.run_s = seconds_between(t0, t1);
  out.verdict_s = seconds_between(t1, t2);
  out.merge_s = seconds_between(t2, t3);
  out.windows = report.windows;
  out.stats = result.stats;
  out.completed = result.stats.committed;
  std::vector<double> retries;
  for (const auto& log : result.logs) {
    for (const exec::CommittedMop& mop : log) {
      retries.push_back(static_cast<double>(mop.attempts - 1));
    }
  }
  out.retries_p99 = tick_percentile(std::move(retries), 99);
  if (!report.ok) {
    out.failure = "verify_execution rejected: " + report.to_string();
  } else if (out.completed != out.submitted || merged != out.submitted ||
             report.mops != out.submitted) {
    out.failure = "committed " + std::to_string(out.completed) + " of " +
                  std::to_string(out.submitted) + " m-operations";
  }
  return out;
}

// ----------------------------------------------------------- self-check

/// Runs every verdict path once on a known-bad input and requires a
/// rejection, so a checker that silently stops rejecting fails the
/// benchmark. Inputs are fixed (independent of --seed).
void self_check(Result& result, CpuRotation& rotation) {
  SpanRecorder off(false);
  {
    // mlin masks a skipped delivery behind its query round (or trips a
    // replica invariant), so the post-hoc checkers are tried on mseq.
    api::SystemConfig config = posthoc_config(11);
    config.protocol = "mseq";
    config.mutation = "skip-delivery";
    api::System system(config);
    system.run_workload(workload_params(100));
    const core::FastCheckResult fast =
        system.check_fast(core::Condition::kMSequentialConsistency);
    if (fast.constraint_holds && fast.legal && fast.admissible) {
      result.problem("self-check: check_fast accepted a skip-delivery history");
    }
    if (system.audit().ok) {
      result.problem("self-check: audit accepted a skip-delivery history");
    }
  }
  {
    api::SystemConfig config = chaos_config(1, 0);  // mseq over sequencer
    config.mutation = "skip-delivery";
    const SimHistory bad = run_chaos(config, kChaosOpsPerProcess, 0, off, false);
    if (bad.failure.rfind("streaming verdict violation", 0) != 0) {
      result.problem("self-check: streaming auditor accepted a skip-delivery history");
    }
  }
  {
    exec::ExecConfig config = exec_config(7);
    config.mops_per_thread = 500;
    exec::ExecResult corrupted = [&] {
      const CpuRotation::Hold workers_on_every_cpu(rotation);
      return exec::run(config);
    }();
    // Point the last external read of the log at the initializing write.
    bool changed = false;
    for (auto log = corrupted.logs.rbegin(); log != corrupted.logs.rend() && !changed; ++log) {
      for (auto mop = log->rbegin(); mop != log->rend() && !changed; ++mop) {
        for (exec::LoggedOp& op : mop->ops) {
          if (op.type == core::OpType::kRead && op.from_tid != exec::kInitialTid &&
              op.from_tid != exec::kOwnWriteTid) {
            op.from_tid = exec::kInitialTid;
            changed = true;
            break;
          }
        }
      }
    }
    if (!changed || exec::verify_execution(corrupted, verify_options()).ok) {
      result.problem("self-check: verify_execution accepted a corrupted from_tid");
    }
  }
}

// ------------------------------------------------------------- workloads

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

template <typename Rep>
void account(Result& result, const Rep& rep) {
  result.attempted += rep.submitted;
  if (!rep.failure.empty()) {
    result.failed += rep.submitted;
    result.problem(rep.failure);
  } else {
    result.failed += rep.submitted - rep.completed;
  }
}

/// One input of a traced run, run once untraced and once traced.
template <typename Rep>
struct Pair {
  Rep untraced;
  Rep traced;
};

template <typename Rep>
void account(Result& result, const Pair<Rep>& pair) {
  account(result, pair.untraced);
  account(result, pair.traced);
}

/// Runs input `index` untraced and traced, alternating which goes first,
/// so that host speed drift weighs on both alike. `traced_s` sums the
/// whole traced calls, teardown included.
template <typename RunOne>
auto paired(std::size_t index, RunOne& run_one, SpanRecorder& off, SpanRecorder& on,
            double& traced_s) {
  Pair<decltype(run_one(index, off))> pair;
  const auto traced = [&] {
    const Clock::time_point begin = Clock::now();
    pair.traced = run_one(index, on);
    traced_s += seconds_between(begin, Clock::now());
  };
  if (index % 2 == 1) traced();
  pair.untraced = run_one(index, off);
  if (index % 2 == 0) traced();
  return pair;
}

template <typename Rep>
std::vector<Rep> traced_reps(std::vector<Pair<Rep>> pairs) {
  std::vector<Rep> traced;
  for (Pair<Rep>& pair : pairs) traced.push_back(std::move(pair.traced));
  return traced;
}

/// Runs `run_one(0)`, `run_one(1)`, ... until `seconds` have passed and at
/// least `min_count` have run, accounting every result. Keeps the first
/// `min_count` results and a uniform sample (reservoir) of the rest, at
/// most kMaxSamples in all, so that the number of histories a machine fits
/// into --seconds does not move peak_rss_mb.
template <typename RunOne>
auto loop(Result& result, std::uint64_t seed, double seconds, std::size_t min_count,
          RunOne&& run_one) {
  std::vector<decltype(run_one(std::size_t{0}))> kept;
  kept.reserve(kMaxSamples);
  util::Rng rng(seed);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < min_count || seconds_between(start, Clock::now()) < seconds;
       ++i) {
    auto rep = run_one(i);
    account(result, rep);
    if (i < kMaxSamples) {
      kept.push_back(std::move(rep));
    } else if (const std::uint64_t slot = rng.next_below(i + 1);
               slot >= min_count && slot < kMaxSamples) {
      kept[slot] = std::move(rep);
    }
  }
  return kept;
}

template <typename Rep, typename Field>
std::vector<double> field(const std::vector<Rep>& reps, Field Rep::*member) {
  std::vector<double> values;
  for (const Rep& rep : reps) values.push_back(static_cast<double>(rep.*member));
  return values;
}

/// The end-to-end metrics, from the untraced histories or repetitions.
template <typename Rep>
void end_to_end(Result& result, const std::vector<Rep>& reps, double setup_s) {
  std::vector<double> rate;
  for (const Rep& rep : reps) {
    rate.push_back(ratio(static_cast<double>(rep.submitted), rep.wall_s()));
  }
  result.add("verified_mops_per_s", "1/s", median(rate));
  result.add("verdict_lag_s", "s", median(field(reps, &Rep::verdict_s)));
  result.add("peak_rss_mb", "MB", peak_rss_mb());
  result.add("setup_s", "s", setup_s);
}

/// Simulator-side per-layer counts over the counted prefix. mseq answers
/// a query from the local replica in 0 ticks, so query latency is taken
/// from the histories whose queries cross the network.
void sim_layers(Result& result, const std::vector<SimHistory>& histories,
                std::size_t counted) {
  double mops = 0, updates = 0, queries = 0, messages = 0, bytes = 0, ticks = 0;
  double retransmits = 0, dups = 0, windows = 0;
  KindSplit kinds;
  std::vector<double> query;
  std::vector<double> update;
  std::vector<double> agree;
  std::vector<double> net;
  std::vector<double> queue;
  const std::size_t n = std::min(counted, histories.size());
  for (std::size_t i = 0; i < n; ++i) {
    const SimHistory& h = histories[i];
    mops += static_cast<double>(h.completed);
    updates += static_cast<double>(h.report.updates);
    queries += static_cast<double>(h.report.queries);
    messages += static_cast<double>(h.traffic.messages);
    bytes += static_cast<double>(h.traffic.bytes);
    ticks += static_cast<double>(h.virtual_end);
    retransmits += static_cast<double>(h.link.retransmits);
    dups += static_cast<double>(h.link.duplicates_suppressed);
    windows += static_cast<double>(h.windows);
    const auto& q = h.report.query_latency.samples();
    const auto& u = h.report.update_latency.samples();
    if (h.protocol != "mseq") query.insert(query.end(), q.begin(), q.end());
    update.insert(update.end(), u.begin(), u.end());
    const KindSplit split = split_by_kind(h.traffic);
    kinds.link += split.link;
    kinds.abcast += split.abcast;
    kinds.protocols += split.protocols;
    if (h.virtual_spans.empty()) continue;
    obs::TraceFile file;
    file.spans = h.virtual_spans;
    obs::Forest forest;
    std::string error;
    if (obs::build_forest(file, &forest, &error)) {
      for (const obs::MOpLatency& mop : obs::attribute_latency(forest)) {
        queue.push_back(static_cast<double>(mop.phases.queue));
      }
    }
    for (const obs::Span& span : h.virtual_spans) {
      const auto length = static_cast<double>(span.end - span.begin);
      if (span.type == obs::SpanType::kAbcastAgree) agree.push_back(length);
      if (span.type == obs::SpanType::kNetHop) net.push_back(length);
    }
  }
  const auto count = static_cast<double>(n);
  result.add("query_latency_p50_ticks", "ticks", tick_percentile(query, 50));
  result.add("query_latency_p99_ticks", "ticks", tick_percentile(query, 99));
  result.add("update_latency_p50_ticks", "ticks", tick_percentile(update, 50));
  result.add("update_latency_p99_ticks", "ticks", tick_percentile(update, 99));
  result.add("sim.msgs_per_mop", "count", ratio(messages, mops));
  result.add("sim.bytes_per_mop", "bytes", ratio(bytes, mops));
  result.add("sim.virtual_ticks", "ticks", ratio(ticks, count));
  result.add("abcast.msgs_per_update", "count", ratio(kinds.abcast, updates));
  result.add("protocols.msgs_per_query", "count", ratio(kinds.protocols, queries));
  result.add("fault.link_msgs_per_mop", "count", ratio(kinds.link, mops));
  result.add("fault.retransmits_per_mop", "count", ratio(retransmits, mops));
  result.add("fault.dup_suppressed", "count", ratio(dups, count));
  result.add("obs.live.windows", "count", ratio(windows, count));
  result.add("abcast.agree_ticks_p50", "ticks", tick_percentile(agree, 50));
  result.add("sim.net_ticks_p50", "ticks", tick_percentile(net, 50));
  result.add("protocols.queue_ticks_p50", "ticks", tick_percentile(queue, 50));
}

/// Wall timings of the simulated layers, medians per traced history. A
/// timing of a layer the workload does not call reads 0 in every history.
void sim_timings(Result& result, const std::vector<SimHistory>& traced) {
  std::vector<double> rate;
  for (const SimHistory& h : traced) rate.push_back(ratio(h.completed, h.run_s));
  result.add("sim.run_s", "s", median(field(traced, &SimHistory::run_s)));
  result.add("sim.mops_per_s", "1/s", median(rate));
  result.add("obs.live.sink_s", "s", median(field(traced, &SimHistory::sink_s)));
  result.add("obs.live.finish_s", "s", median(field(traced, &SimHistory::finish_s)));
  result.add("protocols.history_s", "s", median(field(traced, &SimHistory::history_s)));
  result.add("core.fast_check_s", "s", median(field(traced, &SimHistory::fast_check_s)));
  result.add("core.audit_s", "s", median(field(traced, &SimHistory::audit_s)));
}

/// Engine and windowed-verify metrics, medians per traced repetition.
void exec_layers(Result& result, const std::vector<ExecRep>& traced) {
  const double verify_s = median(field(traced, &ExecRep::verdict_s));
  const double kmops =
      traced.empty() ? 0.0 : static_cast<double>(traced.front().submitted) / 1000.0;
  std::vector<double> commit_rate;
  std::vector<double> aborts;
  for (const ExecRep& rep : traced) {
    const double aborted =
        static_cast<double>(rep.stats.aborted_validation + rep.stats.aborted_lock);
    commit_rate.push_back(ratio(rep.completed, rep.stats.elapsed_seconds));
    aborts.push_back(ratio(aborted, aborted + static_cast<double>(rep.completed)));
  }
  result.add("exec.verify_s", "s", verify_s);
  result.add("exec.verify_windows", "count", median(field(traced, &ExecRep::windows)));
  result.add("exec.verify_s_per_kmop", "s", ratio(verify_s, kmops));
  result.add("exec.run_s", "s", median(field(traced, &ExecRep::run_s)));
  result.add("exec.commit_mops_per_s", "1/s", median(commit_rate));
  result.add("exec.merge_s", "s", median(field(traced, &ExecRep::merge_s)));
  result.add("exec.abort_ratio", "ratio", median(aborts));
  result.add("exec.retries_p99", "count", median(field(traced, &ExecRep::retries_p99)));
}

/// Layer self time summed over every span, the root spans' own time
/// ("bench") left out.
double layer_seconds(const SpanRecorder& spans) {
  double bench = 0;
  for (const perfbench::SelfTime& row : spans.self_times()) {
    if (row.layer == "bench") bench = row.seconds;
  }
  return spans.root_seconds() - bench;
}

/// Verdict share, tracing overhead and coverage, and the failure ratio,
/// from the pairs of a --trace 1 run. `traced_s` is the measured wall
/// time of every traced call, so time outside the layer spans (teardown,
/// bookkeeping) lowers trace.accounted_share.
template <typename Rep>
void trace_layers(Result& result, const std::vector<Pair<Rep>>& pairs,
                  const SpanRecorder& spans, double traced_s) {
  std::vector<double> share;
  std::vector<double> overhead;
  for (const Pair<Rep>& pair : pairs) {
    share.push_back(ratio(pair.traced.verdict_s, pair.traced.wall_s()));
    overhead.push_back(ratio(pair.traced.wall_s(), pair.untraced.wall_s()) - 1.0);
  }
  result.add("core.verdict_share", "ratio", median(share));
  result.add("trace.overhead_share", "ratio", median(overhead));
  result.add("trace.accounted_share", "ratio", ratio(layer_seconds(spans), traced_s));
  result.add("mop_fail_ratio", "ratio",
             ratio(static_cast<double>(result.failed), static_cast<double>(result.attempted)));
}

void write_trace_files(const Args& args, const SpanRecorder& spans, double traced_s) {
  std::ostringstream table;
  table << "self time by layer (" << args.workload << ", seed " << args.seed << ", "
        << spans.spans().size() << " spans, " << std::fixed << std::setprecision(4)
        << traced_s << " s traced)\n";
  std::vector<perfbench::SelfTime> rows = spans.self_times();
  rows.push_back({"(no span)", traced_s - spans.root_seconds()});
  for (const perfbench::SelfTime& row : rows) {
    table << "  " << std::left << std::setw(12) << row.layer << std::right << std::setw(12)
          << row.seconds << " s " << std::setw(8) << std::setprecision(2)
          << 100.0 * ratio(row.seconds, traced_s) << " %\n"
          << std::setprecision(4);
  }
  std::cerr << table.str();
  if (args.trace_dir.empty()) return;
  const std::string stem =
      args.trace_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
  std::ofstream(stem + ".selftime.txt") << table.str();
  std::ofstream json(stem + ".trace.json");
  spans.write_chrome_json(json, args.workload);
  std::cerr << "trace written to " << stem << ".trace.json\n";
}

Result run_sim_workload(const Args& args, bool chaos) {
  Result result;
  SpanRecorder off(false);
  SpanRecorder on(args.trace);
  const std::size_t counted = chaos ? kChaosCounted : kPosthocCounted;
  const auto one = [&](std::size_t index, SpanRecorder& spans) {
    const std::uint64_t seed = mix(args.seed, index);
    SimHistory h =
        chaos ? run_chaos(chaos_config(seed, index), kChaosOpsPerProcess, index + 1, spans,
                          spans.enabled())
              : run_posthoc(posthoc_config(seed), kPosthocOpsPerProcess, index + 1, spans);
    // Past the counted prefix only the timings are read; dropping the
    // rest keeps the run's own bookkeeping out of peak_rss_mb.
    if (index >= counted) h.drop_counters();
    return h;
  };

  if (!args.trace) {
    SetupTimer setup(args.seed, chaos);
    const auto untraced = loop(result, args.seed, args.seconds, 1, [&](std::size_t i) {
      setup.catch_up();
      return one(i, off);
    });
    end_to_end(result, untraced, setup.seconds_per_system());
    return result;
  }

  // Every metric of every layer is printed; the exec layers are not called.
  double traced_s = 0;
  auto pairs = loop(result, args.seed, args.seconds, counted, [&](std::size_t i) {
    return paired(i, one, off, on, traced_s);
  });
  trace_layers(result, pairs, on, traced_s);
  const std::vector<SimHistory> traced = traced_reps(std::move(pairs));
  sim_layers(result, traced, counted);
  sim_timings(result, traced);
  exec_layers(result, {});
  write_trace_files(args, on, traced_s);
  return result;
}

Result run_exec_workload(const Args& args, CpuRotation& rotation) {
  Result result;
  SpanRecorder off(false);
  SpanRecorder on(args.trace);
  const auto one = [&](std::size_t index, SpanRecorder& spans) {
    return run_exec(exec_config(mix(args.seed, index)), index + 1, spans, rotation);
  };
  if (!args.trace) {
    const auto untraced =
        loop(result, args.seed, args.seconds, 1, [&](std::size_t i) { return one(i, off); });
    end_to_end(result, untraced, median(field(untraced, &ExecRep::setup_s)));
    return result;
  }

  // Every metric of every layer is printed; the simulated layers are not
  // called.
  double traced_s = 0;
  auto pairs = loop(result, args.seed, args.seconds, kExecTracedReps, [&](std::size_t i) {
    return paired(i, one, off, on, traced_s);
  });
  trace_layers(result, pairs, on, traced_s);
  sim_layers(result, {}, 0);
  sim_timings(result, {});
  exec_layers(result, traced_reps(std::move(pairs)));
  write_trace_files(args, on, traced_s);
  return result;
}

// ------------------------------------------------------------------- main

int usage(const char* why) {
  std::cerr << "mocc_perfbench: " << why << "\n"
            << "usage: mocc_perfbench --workload sim-posthoc|sim-chaos-stream|exec-verify "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n";
  return 2;
}

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return std::nullopt;
  }
  if (argc % 2 == 0 || args.workload.empty() || !(args.seconds > 0)) return std::nullopt;
  return args;
}

void print_host() {
#if defined(NDEBUG)
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::cout << "{\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"build_type\":\"" << MOCC_PERFBENCH_BUILD_TYPE << "\",\"compiler\":\""
            << json_escape(__VERSION__) << "\",\"ndebug\":" << (ndebug ? "true" : "false")
            << ",\"google_benchmark\":\"not linked\"}}\n";
}

void print_result(const Result& result) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"correct\":" << (result.problems.empty() ? "true" : "false")
      << ",\"attempted\":" << result.attempted << ",\"failed\":" << result.failed
      << ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out << (i == 0 ? "" : ",") << "\"" << m.name << "\":{\"value\":" << m.value
        << ",\"unit\":\"" << m.unit << "\"}";
  }
  out << "},\"problems\":[";
  for (std::size_t i = 0; i < result.problems.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\"" << json_escape(result.problems[i]) << "\"";
  }
  out << "]}\n";
  std::cout << out.str() << std::flush;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse(argc, argv);
  if (!args) return usage("bad arguments");
  if (args->workload != "sim-posthoc" && args->workload != "sim-chaos-stream" &&
      args->workload != "exec-verify") {
    return usage("unknown workload");
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::cerr << "mocc_perfbench: refusing to measure a non-optimised build "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 3;
#endif
  print_host();

  CpuRotation rotation(kRotationPeriod);
  Result result = args->workload == "exec-verify"
                      ? run_exec_workload(*args, rotation)
                      : run_sim_workload(*args, args->workload == "sim-chaos-stream");
  // After the workload, so that its memory does not count in peak_rss_mb.
  self_check(result, rotation);
  print_result(result);
  return 0;
}
