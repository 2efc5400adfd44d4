#include "experiments.hpp"

#include <algorithm>
#include <ostream>
#include <set>
#include <utility>

#include "core/admissibility.hpp"
#include "core/fast_check.hpp"
#include "core/generate.hpp"
#include "exec/verify.hpp"
#include "obs/analysis.hpp"
#include "obs/json.hpp"
#include "txn/generate.hpp"
#include "txn/reduction.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace mocc::bench {

RunResult run_experiment(const api::SystemConfig& config,
                         const protocols::WorkloadParams& params, bool run_audit,
                         obs::TraceSink* trace) {
  api::System system(config);
  if (trace != nullptr) system.set_trace_sink(trace);
  RunResult result;
  result.report = system.run_workload(params);
  result.virtual_time = system.now();
  result.traffic = system.traffic();
  result.history_size = system.history().size();
  if (run_audit && system.supports_audit()) {
    result.audit_ran = true;
    result.audit_ok = system.audit().ok;
  }
  if (const fault::FaultPlan* plan = system.fault_plan()) {
    result.faults = plan->stats();
  }
  result.link = system.link_stats();
  result.link_failures = system.link_failures().size();
  result.backlog = system.backlog();
  return result;
}

void register_latency_metrics(obs::Registry& registry,
                              const protocols::WorkloadReport& report) {
  registry.counter("queries").set(report.queries);
  registry.counter("updates").set(report.updates);
  auto& q = registry.histogram("q", kLatencyLo, kLatencyHi, kLatencyBuckets);
  for (const double sample : report.query_latency.samples()) q.add(sample);
  auto& u = registry.histogram("u", kLatencyLo, kLatencyHi, kLatencyBuckets);
  for (const double sample : report.update_latency.samples()) u.add(sample);
}

void register_run_metrics(obs::Registry& registry, const RunResult& result) {
  register_latency_metrics(registry, result.report);
  registry.counter("mops").set(result.history_size);
  registry.counter("msgs").set(result.traffic.messages);
  registry.counter("bytes").set(result.traffic.bytes);
  registry.gauge("virtual_time").set(static_cast<double>(result.virtual_time));
  const double ops =
      static_cast<double>(result.report.queries + result.report.updates);
  const double ticks = static_cast<double>(std::max<sim::SimTime>(result.virtual_time, 1));
  registry.gauge("msg_per_op")
      .set(ops == 0 ? 0.0 : static_cast<double>(result.traffic.messages) / ops);
  registry.gauge("bytes_per_op")
      .set(ops == 0 ? 0.0 : static_cast<double>(result.traffic.bytes) / ops);
  registry.gauge("tput").set(ops * 1000.0 / ticks);
  if (result.audit_ran) {
    registry.gauge("audit_ok").set(result.audit_ok ? 1.0 : 0.0);
  }
}

void register_fault_metrics(obs::Registry& registry, const RunResult& result) {
  registry.counter("fault_drops").set(result.faults.drops);
  registry.counter("fault_duplicates").set(result.faults.duplicates);
  registry.counter("fault_delay_spikes").set(result.faults.delay_spikes);
  registry.counter("fault_partition_drops").set(result.faults.partition_drops);
  registry.counter("link_data").set(result.link.data_sent);
  registry.counter("link_retransmits").set(result.link.retransmits);
  registry.counter("link_acks").set(result.link.acks_sent);
  registry.counter("link_dedup").set(result.link.duplicates_suppressed);
  // mocc-lint: allow(trace-registry): metric counter sharing the trace event's name; nothing here emits a trace record
  registry.counter("link_exhausted").set(result.link.exhausted);
  registry.counter("link_failures").set(result.link_failures);
  const double data = static_cast<double>(std::max<std::uint64_t>(result.link.data_sent, 1));
  registry.gauge("retransmit_rate")
      .set(static_cast<double>(result.link.retransmits) / data);
}

void register_span_metrics(obs::Registry& registry,
                           const obs::RingBufferSink& sink,
                           const RunResult& result) {
  sink.export_metrics(registry);
  registry.gauge("sim_event_queue_depth")
      .set(static_cast<double>(result.backlog.queue_depth));
  registry.gauge("link_retransmit_buffer_bytes")
      .set(static_cast<double>(result.backlog.link_buffer_bytes));
  auto& queue = registry.histogram("phase_queue", kLatencyLo, kLatencyHi, kLatencyBuckets);
  auto& agree = registry.histogram("phase_agree", kLatencyLo, kLatencyHi, kLatencyBuckets);
  auto& lock = registry.histogram("phase_lock", kLatencyLo, kLatencyHi, kLatencyBuckets);
  auto& net = registry.histogram("phase_net", kLatencyLo, kLatencyHi, kLatencyBuckets);
  obs::TraceFile trace;
  trace.has_header = true;
  trace.events_total = sink.total();
  trace.events_dropped = sink.dropped();
  trace.spans_total = sink.spans_total();
  trace.spans_dropped = sink.spans_dropped();
  MOCC_ASSERT_MSG(trace.events_dropped == 0 && trace.spans_dropped == 0,
                  "span-enabled bench run overflowed its trace ring; raise "
                  "kSpanRingCapacity");
  trace.events = sink.events();
  trace.spans = sink.spans();
  obs::Forest forest;
  std::string error;
  const bool well_formed = obs::build_forest(trace, &forest, &error);
  MOCC_ASSERT_MSG(well_formed, error.c_str());
  for (const obs::MOpLatency& mop : obs::attribute_latency(forest)) {
    queue.add(static_cast<double>(mop.phases.queue));
    agree.add(static_cast<double>(mop.phases.agree));
    lock.add(static_cast<double>(mop.phases.lock));
    net.add(static_cast<double>(mop.phases.net));
  }
}

void register_batching_metrics(obs::Registry& registry,
                               const obs::RingBufferSink& sink) {
  // Batch sizes live in [1, batch_max]; 64 one-wide buckets cover every
  // configuration the sweep (and any sane deployment of the knobs) uses.
  auto& assign_size = registry.histogram("batch_assign_size", 0.0, 64.0, 64);
  auto& flush_items = registry.histogram("batch_flush_items", 0.0, 64.0, 64);
  std::uint64_t assigns = 0;
  std::uint64_t flushes = 0;
  for (const obs::TraceEvent& event : sink.events()) {
    if (event.type == obs::TraceEventType::kBatchAssign) {
      ++assigns;
      assign_size.add(static_cast<double>(event.arg));
    } else if (event.type == obs::TraceEventType::kBatchFlush) {
      ++flushes;
      flush_items.add(static_cast<double>(event.arg));
    }
  }
  // mocc-lint: allow(trace-registry): metric counters named after the trace events they aggregate; nothing here emits a trace record
  registry.counter("batch_assigns").set(assigns);
  registry.counter("batch_flushes").set(flushes);
}

void register_streaming_metrics(obs::Registry& registry,
                                const obs::StreamingAuditor& auditor) {
  auditor.export_metrics(registry);
}

bool experiment_selected(const SuiteOptions& options, std::string_view experiment) {
  if (options.only.empty()) return true;
  return std::find(options.only.begin(), options.only.end(), experiment) !=
         options.only.end();
}

namespace {

std::string pct(double ratio) {
  return std::to_string(static_cast<int>(ratio * 100.0 + 0.5));
}

std::map<std::string, std::string> sim_config_map(const api::SystemConfig& config,
                                                  const protocols::WorkloadParams& params) {
  return {
      {"protocol", config.protocol},
      {"broadcast", config.broadcast},
      {"delay", config.delay},
      {"processes", std::to_string(config.num_processes)},
      {"objects", std::to_string(config.num_objects)},
      {"seed", std::to_string(config.seed)},
      {"ops_per_process", std::to_string(params.ops_per_process)},
      {"update_ratio_pct", pct(params.update_ratio)},
      {"footprint", std::to_string(params.footprint)},
  };
}

ExperimentRecord sim_record(std::string experiment, std::string name,
                            const api::SystemConfig& config,
                            const protocols::WorkloadParams& params, bool run_audit,
                            bool spans = false) {
  ExperimentRecord record;
  record.experiment = std::move(experiment);
  record.name = std::move(name);
  record.config = sim_config_map(config, params);
  if (spans) {
    api::SystemConfig traced = config;
    traced.backlog_sample_interval = kBacklogSampleInterval;
    obs::RingBufferSink sink(kSpanRingCapacity);
    const RunResult result = run_experiment(traced, params, run_audit, &sink);
    register_run_metrics(record.metrics, result);
    register_span_metrics(record.metrics, sink, result);
    record.traffic = result.traffic;
    if (result.audit_ran) {
      record.audit = result.audit_ok ? ExperimentRecord::Audit::kOk
                                     : ExperimentRecord::Audit::kFailed;
    }
    return record;
  }
  const RunResult result = run_experiment(config, params, run_audit);
  register_run_metrics(record.metrics, result);
  record.traffic = result.traffic;
  if (result.audit_ran) {
    record.audit = result.audit_ok ? ExperimentRecord::Audit::kOk
                                   : ExperimentRecord::Audit::kFailed;
  }
  return record;
}

}  // namespace

std::vector<ExperimentRecord> run_e1(const SuiteOptions& options) {
  const std::vector<std::string> protocols =
      options.smoke ? std::vector<std::string>{"mseq", "mlin"}
                    : std::vector<std::string>{"mseq", "mlin", "mlin-narrow",
                                               "mlin-bcastq"};
  const std::vector<std::string> delays =
      options.smoke ? std::vector<std::string>{"lan"}
                    : std::vector<std::string>{"lan", "wan"};
  const std::vector<std::size_t> ns =
      options.smoke ? std::vector<std::size_t>{2, 4}
                    : std::vector<std::size_t>{2, 4, 8, 16, 32};
  std::vector<ExperimentRecord> records;
  for (const auto& protocol : protocols) {
    for (const auto& delay : delays) {
      for (const std::size_t n : ns) {
        api::SystemConfig config;
        config.protocol = protocol;
        config.num_processes = n;
        config.num_objects = 16;
        config.delay = delay;
        config.seed = 42;
        protocols::WorkloadParams params;
        params.ops_per_process = options.smoke ? 10 : 40;
        params.update_ratio = 0.2;  // query-heavy: the contrast under test
        params.footprint = 2;
        records.push_back(sim_record(
            "E1", "E1/query_latency/" + protocol + "/" + delay + "/n" + std::to_string(n),
            config, params, /*run_audit=*/false, options.spans));
      }
    }
  }
  return records;
}

std::vector<ExperimentRecord> run_e2(const SuiteOptions& options) {
  const std::vector<std::size_t> ns =
      options.smoke ? std::vector<std::size_t>{2, 4}
                    : std::vector<std::size_t>{2, 4, 8, 16, 32};
  std::vector<ExperimentRecord> records;
  for (const std::string protocol : {"mseq", "mlin"}) {
    for (const std::string broadcast : {"sequencer", "isis"}) {
      for (const std::size_t n : ns) {
        api::SystemConfig config;
        config.protocol = protocol;
        config.broadcast = broadcast;
        config.num_processes = n;
        config.num_objects = 16;
        config.delay = "lan";
        config.seed = 7;
        protocols::WorkloadParams params;
        params.ops_per_process = options.smoke ? 10 : 40;
        params.update_ratio = 1.0;  // updates only
        params.footprint = 2;
        records.push_back(sim_record(
            "E2",
            "E2/update_latency/" + protocol + "/" + broadcast + "/n" + std::to_string(n),
            config, params, /*run_audit=*/false, options.spans));
      }
    }
  }
  return records;
}

std::vector<ExperimentRecord> run_e3(const SuiteOptions& options) {
  const std::vector<std::string> protocols =
      options.smoke
          ? std::vector<std::string>{"mseq", "mlin", "locking"}
          : std::vector<std::string>{"mseq", "mlin", "mlin-narrow", "mlin-bcastq",
                                     "locking", "aggregate"};
  const std::vector<double> ratios = options.smoke ? std::vector<double>{0.0, 0.5}
                                                   : std::vector<double>{0.0, 0.2, 0.5, 1.0};
  const std::vector<std::size_t> ns = options.smoke
                                          ? std::vector<std::size_t>{2, 4}
                                          : std::vector<std::size_t>{2, 4, 8, 16};
  std::vector<ExperimentRecord> records;
  for (const auto& protocol : protocols) {
    for (const double ratio : ratios) {
      for (const std::size_t n : ns) {
        api::SystemConfig config;
        config.protocol = protocol;
        config.num_processes = n;
        config.num_objects = 16;
        config.delay = "lan";
        config.seed = 11;
        protocols::WorkloadParams params;
        params.ops_per_process = options.smoke ? 10 : 40;
        params.update_ratio = ratio;
        params.footprint = 2;
        records.push_back(sim_record(
            "E3", "E3/messages/" + protocol + "/u" + pct(ratio) + "/n" + std::to_string(n),
            config, params, /*run_audit=*/false));
      }
    }
  }
  return records;
}

namespace {

core::GeneratorParams e4_params(std::size_t mops) {
  core::GeneratorParams params;
  params.num_mops = mops;
  // Few processes + few objects + many writers = weakly constrained
  // orders with many interchangeable writes: the hard regime.
  params.num_processes = 3;
  params.num_objects = 2;
  params.write_probability = 0.8;
  params.min_ops_per_mop = 1;
  params.max_ops_per_mop = 2;
  return params;
}

struct E4Variant {
  const char* slug;  // "msc/free/memo+rw"
  core::Condition condition;
  bool free_family;
  bool memoize;
  bool rw_prune;
};

/// Averages the exact checker over `instances` generated histories. The
/// rng is seeded per record so every record is deterministic in
/// isolation (running with --only E4 yields the same numbers as the full
/// suite).
ExperimentRecord exact_checker_record(const E4Variant& variant, std::size_t mops,
                                      std::size_t instances) {
  ExperimentRecord record;
  record.experiment = "E4";
  record.name = std::string("E4/exact/") + variant.slug + "/m" + std::to_string(mops);
  record.config = {
      {"condition",
       variant.condition == core::Condition::kMSequentialConsistency ? "msc" : "mlin"},
      {"family", variant.free_family ? "free" : "admissible"},
      {"memoize", variant.memoize ? "1" : "0"},
      {"rw_prune", variant.rw_prune ? "1" : "0"},
      {"mops", std::to_string(mops)},
      {"instances", std::to_string(instances)},
      {"seed", "2025"},
  };
  util::Rng rng(2025);
  std::uint64_t states_total = 0;
  std::uint64_t admissible = 0;
  bool completed = true;
  for (std::size_t i = 0; i < instances; ++i) {
    const auto h = variant.free_family
                       ? core::generate_free_history(e4_params(mops), rng)
                       : core::generate_admissible_history(e4_params(mops), rng);
    core::AdmissibilityOptions checker;
    checker.use_rw_pruning = variant.rw_prune;
    checker.use_memoization = variant.memoize;
    checker.max_states = 50'000'000;
    const auto result = core::check_condition(h, variant.condition, checker);
    states_total += result.states_visited;
    admissible += result.admissible ? 1 : 0;
    completed = completed && result.completed;
  }
  record.metrics.counter("instances").set(instances);
  record.metrics.counter("states_total").set(states_total);
  record.metrics.counter("admissible").set(admissible);
  record.metrics.gauge("states_mean")
      .set(static_cast<double>(states_total) / static_cast<double>(instances));
  record.metrics.gauge("completed").set(completed ? 1.0 : 0.0);
  return record;
}

/// Theorem-2 instances: random interleaved schedules pushed through the
/// reduction — checking the resulting history for m-linearizability IS
/// deciding strict view serializability, the problem the paper reduces
/// from.
ExperimentRecord reduction_record(bool prune, std::size_t txns, std::size_t instances) {
  ExperimentRecord record;
  record.experiment = "E4";
  record.name = std::string("E4/reduction/mlin/") + (prune ? "pruned" : "raw") + "/t" +
                std::to_string(txns);
  record.config = {
      {"txns", std::to_string(txns)},
      {"prune", prune ? "1" : "0"},
      {"instances", std::to_string(instances)},
      {"seed", "4242"},
  };
  util::Rng rng(4242);
  txn::ScheduleParams params;
  params.num_txns = txns;
  params.num_entities = 2;
  params.min_actions_per_txn = 2;
  params.max_actions_per_txn = 3;
  params.write_probability = 0.7;
  std::uint64_t states_total = 0;
  std::uint64_t admissible = 0;
  for (std::size_t i = 0; i < instances; ++i) {
    txn::Schedule schedule = txn::generate_interleaved_schedule(params, rng);
    auto reduced = txn::reduce_to_history(schedule);
    while (!reduced.feasible) {
      schedule = txn::generate_interleaved_schedule(params, rng);
      reduced = txn::reduce_to_history(schedule);
    }
    core::AdmissibilityOptions checker;
    checker.use_rw_pruning = prune;
    checker.use_memoization = prune;
    checker.max_states = 50'000'000;
    const auto result = core::check_condition(
        reduced.history, core::Condition::kMLinearizability, checker);
    states_total += result.states_visited;
    admissible += result.admissible ? 1 : 0;
  }
  record.metrics.counter("instances").set(instances);
  record.metrics.counter("states_total").set(states_total);
  record.metrics.counter("admissible").set(admissible);
  record.metrics.gauge("states_mean")
      .set(static_cast<double>(states_total) / static_cast<double>(instances));
  return record;
}

}  // namespace

std::vector<ExperimentRecord> run_e4(const SuiteOptions& options) {
  // The memoization and ~rw-pruning ablation is split so each lever's
  // contribution is measurable on its own.
  const E4Variant variants[] = {
      {"msc/free/memo+rw", core::Condition::kMSequentialConsistency, true, true, true},
      {"msc/free/memo-only", core::Condition::kMSequentialConsistency, true, true,
       false},
      {"msc/free/rw-only", core::Condition::kMSequentialConsistency, true, false, true},
      {"msc/free/raw", core::Condition::kMSequentialConsistency, true, false, false},
      {"mlin/free/memo+rw", core::Condition::kMLinearizability, true, true, true},
      {"msc/admissible/memo+rw", core::Condition::kMSequentialConsistency, false, true,
       true},
  };
  const std::size_t instances = options.smoke ? 2 : 3;
  std::vector<ExperimentRecord> records;
  if (options.smoke) {
    for (const auto& variant : {variants[0], variants[4]}) {
      for (const std::size_t mops : {6, 8}) {
        records.push_back(exact_checker_record(variant, mops, instances));
      }
    }
    records.push_back(reduction_record(/*prune=*/true, /*txns=*/4, instances));
    return records;
  }
  for (const auto& variant : variants) {
    for (const std::size_t mops : {6, 10, 14}) {
      records.push_back(exact_checker_record(variant, mops, instances));
    }
  }
  for (const std::size_t txns : {4, 8, 12}) {
    records.push_back(reduction_record(/*prune=*/true, txns, instances));
  }
  for (const std::size_t txns : {4, 8}) {
    records.push_back(reduction_record(/*prune=*/false, txns, instances));
  }
  return records;
}

namespace {

/// Protocol-generated history + its recorded ~ww order (E5 input).
struct Recorded {
  core::History history;
  core::WwRanks ww_ranks;
};

Recorded record_history(std::size_t total_ops) {
  api::SystemConfig config;
  config.protocol = "mlin";
  config.num_processes = 4;
  config.num_objects = 8;
  config.delay = "lan";
  config.seed = 99;
  api::System system(config);
  protocols::WorkloadParams params;
  params.ops_per_process = total_ops / config.num_processes;
  params.update_ratio = 0.5;
  params.footprint = 2;
  system.run_workload(params);
  return Recorded{system.history(), system.recorder().ww_ranks()};
}

std::map<std::string, std::string> e5_config_map(std::size_t target) {
  return {
      {"protocol", "mlin"},
      {"processes", "4"},
      {"objects", "8"},
      {"seed", "99"},
      {"target_mops", std::to_string(target)},
  };
}

}  // namespace

std::vector<ExperimentRecord> run_e5(const SuiteOptions& options) {
  std::vector<ExperimentRecord> records;
  const std::vector<std::size_t> fast_sizes =
      options.smoke ? std::vector<std::size_t>{16, 32}
                    : std::vector<std::size_t>{16, 64, 256};
  for (const std::size_t target : fast_sizes) {
    const Recorded recorded = record_history(target);
    ExperimentRecord record;
    record.experiment = "E5";
    record.name = "E5/theorem7_poly/m" + std::to_string(target);
    record.config = e5_config_map(target);
    const auto result = core::fast_check_condition(
        recorded.history, core::Condition::kMLinearizability, recorded.ww_ranks,
        core::Constraint::kWW);
    record.metrics.counter("mops").set(recorded.history.size());
    record.metrics.gauge("constraint_holds").set(result.constraint_holds ? 1.0 : 0.0);
    record.metrics.gauge("legal").set(result.legal ? 1.0 : 0.0);
    record.metrics.gauge("admissible").set(result.admissible ? 1.0 : 0.0);
    records.push_back(std::move(record));
  }
  const std::vector<std::pair<bool, std::vector<std::size_t>>> exact_sweeps = {
      {true, options.smoke ? std::vector<std::size_t>{16}
                           : std::vector<std::size_t>{16, 64, 256}},
      {false, options.smoke ? std::vector<std::size_t>{16}
                            : std::vector<std::size_t>{16, 24}},
  };
  for (const auto& [prune, sizes] : exact_sweeps) {
    for (const std::size_t target : sizes) {
      const Recorded recorded = record_history(target);
      ExperimentRecord record;
      record.experiment = "E5";
      record.name = std::string("E5/exact_") + (prune ? "pruned" : "raw") + "/m" +
                    std::to_string(target);
      record.config = e5_config_map(target);
      record.config["prune"] = prune ? "1" : "0";
      core::AdmissibilityOptions checker;
      checker.use_rw_pruning = prune;
      checker.use_memoization = prune;
      checker.max_states = 100'000'000;
      // The exact checker gets the same information (base order + ~ww).
      auto base =
          core::base_order(recorded.history, core::Condition::kMLinearizability);
      base.merge(core::ww_order(recorded.ww_ranks));
      const auto result = core::check_admissible(recorded.history, base, checker);
      record.metrics.counter("mops").set(recorded.history.size());
      record.metrics.counter("states").set(result.states_visited);
      record.metrics.gauge("admissible").set(result.admissible ? 1.0 : 0.0);
      record.metrics.gauge("completed").set(result.completed ? 1.0 : 0.0);
      records.push_back(std::move(record));
    }
  }
  return records;
}

std::vector<ExperimentRecord> run_e6(const SuiteOptions& options) {
  std::vector<ExperimentRecord> records;
  const auto run_point = [&](const std::string& protocol, std::size_t objects,
                             std::size_t footprint, const std::string& name) {
    api::SystemConfig config;
    config.protocol = protocol;
    config.num_processes = options.smoke ? 4 : 8;
    config.num_objects = objects;
    config.delay = "lan";
    config.seed = 5;
    protocols::WorkloadParams params;
    params.ops_per_process = options.smoke ? 8 : 30;
    params.update_ratio = 0.5;
    params.footprint = footprint;
    records.push_back(sim_record("E6", name, config, params, /*run_audit=*/false));
  };
  if (options.smoke) {
    for (const std::string protocol : {"mseq", "aggregate"}) {
      for (const std::size_t objects : {2, 8}) {
        run_point(protocol, objects, 2,
                  "E6/objects/" + protocol + "/x" + std::to_string(objects));
      }
    }
    for (const std::size_t footprint : {1, 4}) {
      run_point("locking", 32, footprint,
                "E6/footprint/locking/f" + std::to_string(footprint));
    }
    return records;
  }
  for (const std::string protocol : {"mseq", "mlin", "locking", "aggregate"}) {
    // Concurrency sweep: more objects = less contention; the aggregate
    // strawman cannot exploit it.
    for (const std::size_t objects : {2, 8, 32}) {
      run_point(protocol, objects, 2,
                "E6/objects/" + protocol + "/x" + std::to_string(objects));
    }
    // Footprint sweep: broadcast pays one abcast regardless; 2PL pays
    // one lock round trip per object.
    for (const std::size_t footprint : {1, 2, 4, 8}) {
      run_point(protocol, 32, footprint,
                "E6/footprint/" + protocol + "/f" + std::to_string(footprint));
    }
  }
  return records;
}

std::vector<ExperimentRecord> run_e7(const SuiteOptions& options) {
  const std::vector<std::string> protocols =
      options.smoke ? std::vector<std::string>{"mlin"}
                    : std::vector<std::string>{"mseq", "mlin"};
  const std::vector<std::string> delays =
      options.smoke ? std::vector<std::string>{"lan", "reorder"}
                    : std::vector<std::string>{"constant", "lan", "wan", "uniform",
                                               "reorder", "exponential"};
  const std::vector<std::string> broadcasts =
      options.smoke ? std::vector<std::string>{"sequencer"}
                    : std::vector<std::string>{"sequencer", "isis"};
  std::vector<ExperimentRecord> records;
  for (const auto& protocol : protocols) {
    for (const auto& delay : delays) {
      for (const auto& broadcast : broadcasts) {
        api::SystemConfig config;
        config.protocol = protocol;
        config.broadcast = broadcast;
        config.num_processes = options.smoke ? 4 : 6;
        config.num_objects = 8;
        config.delay = delay;
        config.seed = 31;
        protocols::WorkloadParams params;
        params.ops_per_process = options.smoke ? 8 : 25;
        params.update_ratio = 0.5;
        params.footprint = 2;
        records.push_back(
            sim_record("E7", "E7/asynchrony/" + protocol + "/" + delay + "/" + broadcast,
                       config, params, /*run_audit=*/true));
      }
    }
  }
  return records;
}

std::vector<ExperimentRecord> run_e8(const SuiteOptions& options) {
  // Message overhead and delivery latency versus fault rate. Each
  // protocol contributes one fault-free baseline with the link DETACHED
  // (drop_pct=0, link=off — the pre-fault stack, byte-identical traffic)
  // plus the reliable-link stack swept over drop rates; drop_pct=0 with
  // link=on isolates the link's own ack overhead. Audits run on every
  // point: the consistency conditions must hold at every fault rate.
  const std::vector<std::string> protocols =
      options.smoke ? std::vector<std::string>{"mlin"}
                    : std::vector<std::string>{"mseq", "mlin"};
  const std::vector<int> drop_pcts = options.smoke
                                         ? std::vector<int>{0, 5}
                                         : std::vector<int>{0, 2, 5, 10};
  std::vector<ExperimentRecord> records;
  for (const auto& protocol : protocols) {
    api::SystemConfig base;
    base.protocol = protocol;
    base.num_processes = options.smoke ? 3 : 4;
    base.num_objects = 8;
    base.delay = "lan";
    base.seed = 77;
    // RTO above the worst-case lan RTT (2x uniform[5,15] = 30 ticks):
    // without this every frame is spuriously retransmitted once and the
    // drop-rate signal drowns in timeout noise.
    base.link.initial_rto = 40;
    protocols::WorkloadParams params;
    params.ops_per_process = options.smoke ? 8 : 25;
    params.update_ratio = 0.5;
    params.footprint = 2;

    auto push = [&](const api::SystemConfig& config, int drop_pct, bool link_on) {
      ExperimentRecord record;
      record.experiment = "E8";
      record.name = "E8/faults/" + protocol + "/drop" + std::to_string(drop_pct) +
                    (link_on ? "/link" : "/raw");
      record.config = sim_config_map(config, params);
      record.config["drop_pct"] = std::to_string(drop_pct);
      record.config["dup_pct"] = link_on ? "5" : "0";
      record.config["link"] = link_on ? "on" : "off";
      api::SystemConfig traced = config;
      obs::RingBufferSink sink(kSpanRingCapacity);
      if (options.spans) traced.backlog_sample_interval = kBacklogSampleInterval;
      const RunResult result = run_experiment(
          traced, params, /*run_audit=*/true, options.spans ? &sink : nullptr);
      register_run_metrics(record.metrics, result);
      register_fault_metrics(record.metrics, result);
      if (options.spans) register_span_metrics(record.metrics, sink, result);
      record.traffic = result.traffic;
      if (result.audit_ran) {
        record.audit = result.audit_ok ? ExperimentRecord::Audit::kOk
                                       : ExperimentRecord::Audit::kFailed;
      }
      records.push_back(std::move(record));
    };

    // Baseline: the pre-fault stack (no injector, no link).
    push(base, 0, /*link_on=*/false);

    for (const int drop_pct : drop_pcts) {
      api::SystemConfig config = base;
      config.reliable_link = true;
      config.faults.seed = base.seed ^ 0x9e3779b97f4a7c15ULL;
      config.faults.default_link.drop_rate = drop_pct / 100.0;
      config.faults.default_link.duplicate_rate = 0.05;
      push(config, drop_pct, /*link_on=*/true);
    }
  }
  return records;
}

std::vector<ExperimentRecord> run_e9(const SuiteOptions& options) {
  // Hot-path batching: the sequencer group-commit swept over batch
  // sizes against the unbatched baseline, on two stacks — "raw" (no
  // link: pure abcast message complexity, E3-style) and "link" (the
  // reliable link, coalescing on whenever the abcast batches). Every
  // point drives the same closed-loop update-only workload in lockstep
  // ("constant" delay), so batches genuinely fill: messages-per-update
  // collapses from ~n toward 1 + (n-1)/B while the audit must stay
  // green. The latency price of the flush triggers shows in u_mean
  // (and, under --spans, in the phase histograms): batching trades a
  // bounded flush wait for the message drop.
  const std::size_t n = 16;
  const std::vector<std::size_t> batch_sizes =
      options.smoke ? std::vector<std::size_t>{1, 16}
                    : std::vector<std::size_t>{1, 4, 8, 16};
  protocols::WorkloadParams params;
  params.ops_per_process = options.smoke ? 8 : 20;
  params.update_ratio = 1.0;
  params.footprint = 2;
  std::vector<ExperimentRecord> records;
  for (const bool link_on : {false, true}) {
    for (const std::size_t batch : batch_sizes) {
      api::SystemConfig config;
      config.protocol = "mseq";
      config.broadcast = "sequencer";
      config.delay = "constant";
      config.num_processes = n;
      config.num_objects = 8;
      config.seed = 77;
      if (batch > 1) {
        config.batching.abcast_batch_max = batch;
        // Above the 20-tick skew between the sequencer's local response
        // and the foreign ones (local deliveries skip the network, so
        // node 0 runs one constant-delay round-trip ahead): its own next
        // update waits for the round's foreign submissions instead of
        // age-flushing as a singleton block.
        config.batching.abcast_batch_age = 24;
      }
      if (link_on) {
        config.reliable_link = true;
        config.link.initial_rto = 40;  // above the 20-tick constant RTT
        if (batch > 1) {
          config.batching.link_batch_items = 4;
          config.batching.link_batch_age = 3;
        }
      }
      ExperimentRecord record;
      record.experiment = "E9";
      record.name = "E9/batching/" + std::string(link_on ? "link" : "raw") +
                    "/batch" + std::to_string(batch);
      record.config = sim_config_map(config, params);
      record.config["abcast_batch"] = std::to_string(batch);
      record.config["link_batch"] =
          std::to_string(config.batching.link_batch_items);
      record.config["link"] = link_on ? "on" : "off";
      api::SystemConfig traced = config;
      obs::RingBufferSink sink(kSpanRingCapacity);
      if (options.spans) traced.backlog_sample_interval = kBacklogSampleInterval;
      // The sink is attached unconditionally: the batch-size series is
      // read off batch_assign / batch_flush events. Tracing is
      // observation-only, so the execution bytes do not depend on it.
      const RunResult result =
          run_experiment(traced, params, /*run_audit=*/true, &sink);
      register_run_metrics(record.metrics, result);
      register_batching_metrics(record.metrics, sink);
      if (options.spans) register_span_metrics(record.metrics, sink, result);
      record.traffic = result.traffic;
      if (result.audit_ran) {
        record.audit = result.audit_ok ? ExperimentRecord::Audit::kOk
                                       : ExperimentRecord::Audit::kFailed;
      }
      records.push_back(std::move(record));
    }
  }
  return records;
}

void register_exec_metrics(obs::Registry& registry,
                           const exec::ExecResult& result,
                           bool include_wallclock) {
  // Every series registers unconditionally: a record with zero committed
  // m-operations (the all-abort corner) carries the same keys as a busy
  // one, with explicit zero counts — the schema-stability contract
  // register_latency_metrics established for empty latency classes.
  registry.counter("exec_committed").set(result.stats.committed);
  registry.counter("exec_abort_validation").set(result.stats.aborted_validation);
  registry.counter("exec_abort_lock").set(result.stats.aborted_lock);
  registry.counter("exec_abandoned").set(result.stats.abandoned);
  auto& retries = registry.histogram("exec_retries", 0.0, 64.0, 64);
  for (const auto& log : result.logs) {
    for (const exec::CommittedMop& mop : log) {
      retries.add(static_cast<double>(mop.attempts - 1));
    }
  }
  const std::uint64_t aborts =
      result.stats.aborted_validation + result.stats.aborted_lock;
  const std::uint64_t attempts = result.stats.committed + aborts;
  registry.gauge("exec_abort_rate")
      .set(attempts == 0 ? 0.0
                         : static_cast<double>(aborts) /
                               static_cast<double>(attempts));
  registry.gauge("exec_tput_mops")
      .set(include_wallclock
               ? static_cast<double>(result.stats.mops_per_sec()) / 1e6
               : 0.0);
}

std::vector<ExperimentRecord> run_e10(const SuiteOptions& options) {
  // The multicore engine: real threads committing via OCC against one
  // shared store, swept over thread count x (object count, skew)
  // contention legs at a fixed total m-operation budget, so every point
  // does the same work and the thread axis reads as scaling. Each
  // point's merged log is replayed in tid order as the witness
  // (exec::verify_execution); the verdict lands in the record's audit
  // field. The real-time contract check (VerifyOptions::run_audit) runs
  // on the high-contention legs, where validation aborts actually
  // happen, so the low-contention legs are verified m-sequentially
  // consistent.
  //
  // Smoke mode keeps only the single-thread points: one worker commits
  // first-try in a deterministic order, so the record bytes — with the
  // wall-clock gauge pinned to zero — golden-test like every simulator
  // record. Multi-thread points carry measured wall-clock throughput
  // and scheduler-dependent abort counts, and are documented as exempt
  // from the byte-identity contract (docs/observability.md).
  struct Leg {
    const char* name;
    std::size_t objects;
    double zipf_skew;
    bool audit;
  };
  const Leg legs[] = {
      {"low", 4096, 0.0, false},
      {"high", 64, 0.9, true},
  };
  const std::vector<std::size_t> thread_counts =
      options.smoke ? std::vector<std::size_t>{1}
                    : std::vector<std::size_t>{1, 2, 4, 8};
  const std::size_t total_mops = options.smoke ? 2000 : 100000;

  std::vector<ExperimentRecord> records;
  for (const Leg& leg : legs) {
    for (const std::size_t threads : thread_counts) {
      exec::ExecConfig config;
      config.threads = threads;
      // Smoke shrinks the store to an eighth, as the golden records it.
      config.objects = options.smoke ? leg.objects / 8 : leg.objects;
      config.mops_per_thread = total_mops / threads;
      config.footprint = 4;
      config.query_ratio = 0.4;
      config.rmw_ratio = 0.5;
      config.zipf_skew = leg.zipf_skew;
      config.seed = 42;

      const exec::ExecResult result = exec::run(config);
      exec::VerifyOptions verify;
      verify.run_audit = leg.audit;
      const exec::VerifyReport verdict = exec::verify_execution(result, verify);

      ExperimentRecord record;
      record.experiment = "E10";
      record.name = std::string("E10/exec/") + leg.name + "/t" +
                    std::to_string(threads);
      record.config["threads"] = std::to_string(threads);
      record.config["objects"] = std::to_string(config.objects);
      record.config["mops_per_thread"] = std::to_string(config.mops_per_thread);
      record.config["footprint"] = std::to_string(config.footprint);
      record.config["query_ratio"] = "0.4";
      record.config["rmw_ratio"] = "0.5";
      record.config["zipf"] = leg.zipf_skew == 0.0 ? "0" : "0.9";
      record.config["seed"] = std::to_string(config.seed);
      record.config["p5_audit"] = leg.audit ? "on" : "off";
      register_exec_metrics(record.metrics, result,
                            /*include_wallclock=*/!options.smoke);
      record.metrics.counter("exec_verify_windows").set(verdict.windows);
      record.audit = verdict.ok ? ExperimentRecord::Audit::kOk
                                : ExperimentRecord::Audit::kFailed;
      records.push_back(std::move(record));
    }
  }
  return records;
}

std::vector<ExperimentRecord> run_e11(const SuiteOptions& options) {
  // Streaming-audit overhead on E1-shaped (clean) and E8-shaped (faulty,
  // reliable-link) runs. Three audit modes per shape: `off` is the
  // baseline with no trace sink at all, `stream` consumes the trace tap
  // online through a StreamingAuditor, `posthoc` captures the whole
  // trace in a ring and audits it after the run. Virtual-time metrics
  // are identical across modes by construction — the sink is
  // observation, never scheduling — so the records document that
  // invariant; the wall-clock cost lives in bench_e11_streaming.
  struct Shape {
    const char* name;
    bool faults;
  };
  const Shape shapes[] = {{"clean", false}, {"faults", true}};
  const char* modes[] = {"off", "stream", "posthoc"};
  std::vector<ExperimentRecord> records;
  for (const Shape& shape : shapes) {
    api::SystemConfig config;
    config.protocol = "mlin";
    config.num_processes = 3;
    config.num_objects = 8;
    config.delay = "lan";
    config.seed = 77;
    if (shape.faults) {
      config.reliable_link = true;
      config.link.initial_rto = 40;  // as in run_e8: no spurious timeouts
      config.faults.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
      config.faults.default_link.drop_rate = 0.05;
      config.faults.default_link.duplicate_rate = 0.05;
    }
    protocols::WorkloadParams params;
    params.ops_per_process = options.smoke ? 8 : 25;
    params.update_ratio = 0.5;
    params.footprint = 2;

    for (const char* mode : modes) {
      ExperimentRecord record;
      record.experiment = "E11";
      record.name = std::string("E11/streaming/") + shape.name + "/" + mode;
      record.config = sim_config_map(config, params);
      record.config["faults"] = shape.faults ? "on" : "off";
      record.config["audit_mode"] = mode;

      if (mode == std::string("stream")) {
        obs::StreamingAuditorOptions live;
        live.condition = core::Condition::kMLinearizability;
        live.processes = config.num_processes;
        obs::StreamingAuditor auditor(live);
        const RunResult result =
            run_experiment(config, params, /*run_audit=*/true, &auditor);
        auditor.finish();
        MOCC_ASSERT_MSG(!auditor.violated(),
                        "E11 streams a correct protocol; a violation here "
                        "is an auditor bug");
        register_run_metrics(record.metrics, result);
        register_streaming_metrics(record.metrics, auditor);
        record.traffic = result.traffic;
        if (result.audit_ran) {
          record.audit = result.audit_ok ? ExperimentRecord::Audit::kOk
                                         : ExperimentRecord::Audit::kFailed;
        }
      } else if (mode == std::string("posthoc")) {
        obs::RingBufferSink sink(kSpanRingCapacity);
        const RunResult result =
            run_experiment(config, params, /*run_audit=*/true, &sink);
        obs::TraceFile trace;
        trace.has_header = true;
        trace.events = sink.events();
        trace.spans = sink.spans();
        const obs::TraceAudit audit = obs::audit_from_trace(
            trace, core::Condition::kMLinearizability);
        register_run_metrics(record.metrics, result);
        record.metrics.gauge("posthoc_audit_ok").set(audit.ok ? 1.0 : 0.0);
        record.metrics.counter("posthoc_audit_mops").set(audit.mops);
        record.traffic = result.traffic;
        if (result.audit_ran) {
          record.audit = result.audit_ok ? ExperimentRecord::Audit::kOk
                                         : ExperimentRecord::Audit::kFailed;
        }
      } else {
        const RunResult result =
            run_experiment(config, params, /*run_audit=*/true);
        register_run_metrics(record.metrics, result);
        record.traffic = result.traffic;
        if (result.audit_ran) {
          record.audit = result.audit_ok ? ExperimentRecord::Audit::kOk
                                         : ExperimentRecord::Audit::kFailed;
        }
      }
      records.push_back(std::move(record));
    }
  }
  return records;
}

std::vector<ExperimentRecord> run_suite(const SuiteOptions& options) {
  using Runner = std::vector<ExperimentRecord> (*)(const SuiteOptions&);
  constexpr std::pair<const char*, Runner> kExperiments[] = {
      {"E1", run_e1}, {"E2", run_e2}, {"E3", run_e3},  {"E4", run_e4},
      {"E5", run_e5}, {"E6", run_e6}, {"E7", run_e7},  {"E8", run_e8},
      {"E9", run_e9}, {"E10", run_e10}, {"E11", run_e11},
  };
  std::vector<ExperimentRecord> records;
  for (const auto& [name, runner] : kExperiments) {
    if (!experiment_selected(options, name)) continue;
    auto batch = runner(options);
    records.insert(records.end(), std::make_move_iterator(batch.begin()),
                   std::make_move_iterator(batch.end()));
  }
  return records;
}

namespace {

const char* audit_label(ExperimentRecord::Audit audit) {
  switch (audit) {
    case ExperimentRecord::Audit::kOk:
      return "ok";
    case ExperimentRecord::Audit::kFailed:
      return "failed";
    case ExperimentRecord::Audit::kNotApplicable:
      return "n/a";
  }
  return "n/a";
}

void write_traffic(obs::JsonWriter& json, const sim::TrafficStats& traffic) {
  json.begin_object();
  json.field("messages", traffic.messages);
  json.field("bytes", traffic.bytes);
  json.key("by_kind");
  json.begin_array();
  // messages_by_kind and bytes_by_kind are filled together in
  // Simulator::send, but union the key sets anyway so a one-sided entry
  // can never be dropped silently.
  std::set<std::uint32_t> kinds;
  for (const auto& [kind, n] : traffic.messages_by_kind) kinds.insert(kind);
  for (const auto& [kind, n] : traffic.bytes_by_kind) kinds.insert(kind);
  for (const std::uint32_t kind : kinds) {
    json.begin_object();
    json.field("kind", kind);
    const auto messages = traffic.messages_by_kind.find(kind);
    const auto bytes = traffic.bytes_by_kind.find(kind);
    json.field("messages", messages == traffic.messages_by_kind.end()
                               ? std::uint64_t{0}
                               : messages->second);
    json.field("bytes",
               bytes == traffic.bytes_by_kind.end() ? std::uint64_t{0} : bytes->second);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace

void write_records_json(std::ostream& out,
                        const std::vector<ExperimentRecord>& records,
                        const SuiteOptions& options) {
  obs::JsonWriter json(out, /*pretty=*/true);
  json.begin_object();
  json.field("schema_version", kBenchSchemaVersion);
  // Additive minor revision: the highest one whose names actually appear
  // in the record set (minor 5 = E11's streaming-audit series, minor 4 =
  // E10's exec-engine series, minor 3 = E9's batch-size series, minor 2
  // = span phase series, minor 1 = E8's fault/link metrics). Artifacts
  // using none — and their goldens — stay byte-identical to minor 0.
  const bool has_streaming_records =
      std::any_of(records.begin(), records.end(), [](const ExperimentRecord& r) {
        return r.metrics.counters().contains("audit_mops");
      });
  const bool has_exec_records =
      std::any_of(records.begin(), records.end(), [](const ExperimentRecord& r) {
        return r.metrics.counters().contains("exec_committed");
      });
  const bool has_batching_records =
      std::any_of(records.begin(), records.end(), [](const ExperimentRecord& r) {
        return r.metrics.histograms().contains("batch_assign_size");
      });
  const bool has_span_records =
      std::any_of(records.begin(), records.end(), [](const ExperimentRecord& r) {
        return r.metrics.histograms().contains("phase_queue");
      });
  const bool has_fault_records =
      std::any_of(records.begin(), records.end(),
                  [](const ExperimentRecord& r) { return r.experiment == "E8"; });
  if (has_streaming_records) {
    json.field("schema_minor", kBenchSchemaMinorStreaming);
  } else if (has_exec_records) {
    json.field("schema_minor", kBenchSchemaMinorExec);
  } else if (has_batching_records) {
    json.field("schema_minor", kBenchSchemaMinorBatching);
  } else if (has_span_records) {
    json.field("schema_minor", kBenchSchemaMinorSpans);
  } else if (has_fault_records) {
    json.field("schema_minor", kBenchSchemaMinorFaults);
  }
  json.field("suite", "mocc-bench");
  json.field("mode", options.smoke ? "smoke" : "full");
  json.key("only");
  json.begin_array();
  for (const auto& name : options.only) json.value(name);
  json.end_array();
  json.key("records");
  json.begin_array();
  for (const auto& record : records) {
    json.begin_object();
    json.field("experiment", record.experiment);
    json.field("name", record.name);
    json.key("config");
    json.begin_object();
    for (const auto& [key, value] : record.config) json.field(key, value);
    json.end_object();
    record.metrics.write_json_fields(json);
    json.key("traffic");
    write_traffic(json, record.traffic);
    json.field("audit", audit_label(record.audit));
    json.end_object();
  }
  json.end_array();
  json.end_object();
  MOCC_ASSERT(json.done());
  out << "\n";
}

void print_records(std::ostream& out, const std::vector<ExperimentRecord>& records) {
  // Group into contiguous per-experiment blocks (the suite emits them in
  // order), each rendered as one table over the union of metric names.
  std::size_t begin = 0;
  while (begin < records.size()) {
    std::size_t end = begin + 1;
    while (end < records.size() &&
           records[end].experiment == records[begin].experiment) {
      ++end;
    }
    std::set<std::string> counter_names;
    std::set<std::string> gauge_names;
    std::set<std::string> histogram_names;
    bool any_audit = false;
    for (std::size_t i = begin; i < end; ++i) {
      for (const auto& [name, counter] : records[i].metrics.counters()) {
        counter_names.insert(name);
      }
      for (const auto& [name, gauge] : records[i].metrics.gauges()) {
        gauge_names.insert(name);
      }
      for (const auto& [name, histogram] : records[i].metrics.histograms()) {
        histogram_names.insert(name);
      }
      any_audit = any_audit || records[i].audit != ExperimentRecord::Audit::kNotApplicable;
    }
    std::vector<std::string> headers = {"name"};
    for (const auto& name : counter_names) headers.push_back(name);
    for (const auto& name : gauge_names) headers.push_back(name);
    for (const auto& name : histogram_names) {
      headers.push_back(name + "_n");
      headers.push_back(name + "_mean");
      headers.push_back(name + "_p50");
      headers.push_back(name + "_p99");
    }
    if (any_audit) headers.push_back("audit");
    util::Table table(headers);
    for (std::size_t i = begin; i < end; ++i) {
      const auto& record = records[i];
      std::vector<std::string> row = {record.name};
      for (const auto& name : counter_names) {
        const auto& counters = record.metrics.counters();
        const auto it = counters.find(name);
        row.push_back(it == counters.end() ? "-" : util::Table::num(it->second.value()));
      }
      for (const auto& name : gauge_names) {
        const auto& gauges = record.metrics.gauges();
        const auto it = gauges.find(name);
        row.push_back(it == gauges.end() ? "-" : util::Table::num(it->second.value()));
      }
      for (const auto& name : histogram_names) {
        const auto& histograms = record.metrics.histograms();
        const auto it = histograms.find(name);
        if (it == histograms.end()) {
          row.insert(row.end(), {"-", "-", "-", "-"});
        } else {
          row.push_back(util::Table::num(it->second.count()));
          row.push_back(util::Table::num(it->second.mean()));
          row.push_back(util::Table::num(it->second.percentile(50.0)));
          row.push_back(util::Table::num(it->second.percentile(99.0)));
        }
      }
      if (any_audit) row.push_back(audit_label(record.audit));
      table.add_row(std::move(row));
    }
    out << "== " << records[begin].experiment << " ==\n" << table.render() << "\n";
    begin = end;
  }
}

void write_demo_trace(std::ostream& out) {
  obs::RingBufferSink sink(1 << 16);
  api::SystemConfig config;
  config.protocol = "mlin";
  config.num_processes = 3;
  config.num_objects = 4;
  config.delay = "lan";
  config.seed = 42;
  // Batching on, so the demo trace carries batch_assign / batch_flush
  // events and `trace_query --audit` verifies a batched history.
  config.batching.abcast_batch_max = 4;
  config.batching.abcast_batch_age = 6;
  config.batching.batch_queries = true;
  protocols::WorkloadParams params;
  params.ops_per_process = 4;
  params.update_ratio = 0.5;
  params.footprint = 2;
  run_experiment(config, params, /*run_audit=*/false, &sink);
  obs::write_trace_jsonl(out, sink);
}

}  // namespace mocc::bench
