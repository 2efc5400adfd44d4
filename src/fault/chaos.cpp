#include "fault/chaos.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "api/system.hpp"
#include "core/verdict.hpp"
#include "obs/live.hpp"

namespace mocc::chaos {

namespace {

struct CellOutcome {
  std::size_t runs = 0;
  std::size_t passed = 0;
};

void accumulate(fault::FaultStats& into, const fault::FaultStats& from) {
  into.sends_seen += from.sends_seen;
  into.drops += from.drops;
  into.duplicates += from.duplicates;
  into.delay_spikes += from.delay_spikes;
  into.partition_drops += from.partition_drops;
  into.crash_discards += from.crash_discards;
}

void accumulate(fault::LinkStats& into, const fault::LinkStats& from) {
  into.data_sent += from.data_sent;
  into.retransmits += from.retransmits;
  into.acks_sent += from.acks_sent;
  into.delivered += from.delivered;
  into.duplicates_suppressed += from.duplicates_suppressed;
  into.exhausted += from.exhausted;
}

/// One execution. Returns an empty string on pass, a reason on failure.
std::string run_one(const ChaosParams& params, const std::string& protocol,
                    const std::string& broadcast, double drop_rate,
                    std::uint64_t seed, ChaosReport& report) {
  api::SystemConfig config;
  config.num_processes = params.num_processes;
  config.num_objects = params.num_objects;
  config.protocol = protocol;
  config.broadcast = broadcast;
  config.delay = "lan";
  config.seed = seed;
  config.reliable_link = true;
  config.faults.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  config.faults.default_link.drop_rate = drop_rate;
  config.faults.default_link.duplicate_rate = params.duplicate_rate;
  config.faults.default_link.delay_spike_rate = params.delay_spike_rate;
  config.faults.default_link.delay_spike = params.delay_spike;
  if (params.batching) {
    // Group-commit is a sequencer-only feature; coalescing and query
    // rounds apply wherever the layer below exists. Small thresholds and
    // short ages so both size and age flushes fire under faults.
    if (broadcast == "sequencer" && protocol != "locking" &&
        protocol != "aggregate") {
      config.batching.abcast_batch_max = 4;
      config.batching.abcast_batch_age = 6;
    }
    config.batching.link_batch_items = 3;
    config.batching.link_batch_age = 3;
    if (protocol == "mlin" || protocol == "mlin-narrow") {
      config.batching.batch_queries = true;
    }
  }
  if (params.partition && params.num_processes >= 2) {
    // One partition/heal cycle isolating node 0. The reliable link's
    // backoff horizon (sum of the retransmit schedule) comfortably
    // exceeds the outage, so healed traffic recovers.
    config.faults.partitions.push_back(
        {params.partition_start, params.partition_heal, {0}});
  }

  const bool exact = protocol == "locking" || protocol == "aggregate";
  // Apply the requested mutation only to cells it is defined for
  // (System asserts otherwise); incompatible cells run unmutated.
  if (!params.mutation.empty()) {
    const bool mutated =
        (params.mutation == "seq-swap" && !exact &&
         broadcast == "sequencer" && config.batching.abcast_batch_max <= 1) ||
        (params.mutation == "skip-delivery" && !exact &&
         params.num_processes >= 2) ||
        (params.mutation == "early-release" && exact);
    if (mutated) config.mutation = params.mutation;
  }
  protocols::WorkloadParams workload;
  // The exponential checker is the only oracle for the locking baseline:
  // keep those histories small.
  workload.ops_per_process =
      exact ? std::min<std::size_t>(params.ops_per_process, 4)
            : params.ops_per_process;
  workload.update_ratio = 0.5;
  workload.footprint = 2;

  api::System system(config);
  std::optional<obs::StreamingAuditor> auditor;
  if (params.stream) {
    obs::StreamingAuditorOptions live_options;
    live_options.condition = api::claimed_condition(protocol);
    if (params.stream_window != 0) live_options.window = params.stream_window;
    auditor.emplace(live_options);
    auditor->set_violation_callback(
        [&system](const obs::StreamingReport&) { system.request_stop(); });
    system.set_trace_sink(&*auditor);
  }
  const protocols::WorkloadReport run = system.run_workload(workload);

  if (const fault::FaultPlan* plan = system.fault_plan()) {
    accumulate(report.faults, plan->stats());
  }
  accumulate(report.link, system.link_stats());

  const std::size_t expected = workload.ops_per_process * params.num_processes;
  const std::size_t responded = run.queries + run.updates;
  if (params.stream) {
    // The streaming verdict goes first: a mid-run abort also leaves the
    // workload incomplete, and the violation is the interesting reason.
    const obs::StreamingReport& live = auditor->finish();
    report.stream_windows += live.windows;
    if (live.verdict == obs::StreamVerdict::kViolation) {
      std::ostringstream reason;
      reason << "streaming auditor violation";
      if (responded < expected) {
        ++report.mid_run_aborts;
        reason << " mid-run (run stopped after " << responded << "/"
               << expected << " m-operations)";
      }
      reason << ": " << live.detail;
      return reason.str();
    }
  }
  if (responded != expected) {
    std::ostringstream reason;
    reason << "incomplete workload: " << responded << "/" << expected
           << " m-operations responded";
    return reason.str();
  }
  if (!system.link_failures().empty()) {
    std::ostringstream reason;
    reason << system.link_failures().size() << " reliable-link sends exhausted "
           << "their retry budget";
    return reason.str();
  }

  // Post-hoc: the P5.x audit for the §5 protocols (by Theorem 10 it
  // implies admissibility). The locking baselines record neither
  // timestamps nor an abcast order, so check_history runs its exact
  // search there; an exhausted budget fails the run like a violation.
  std::string posthoc;
  if (system.supports_audit()) {
    const core::AuditReport audit = system.audit();
    if (!audit.ok) {
      posthoc = "audit violation";
      if (!audit.violations.empty()) posthoc += ": " + audit.violations.front();
    }
  } else {
    const core::Verdict verdict =
        core::check_history(system.history(), api::claimed_condition(protocol),
                            system.recorder().ww_ranks(), /*exact_budget=*/5'000'000);
    if (!verdict.ok()) posthoc = verdict.detail;
  }
  if (params.stream) {
    // Live/post-hoc cross-check: the drops-to-inconclusive contract
    // means the auditor never silently passes a run it couldn't see all
    // of, and a clean live verdict must agree with the offline oracle.
    const obs::StreamingReport& live = auditor->report();
    if (live.verdict == obs::StreamVerdict::kInconclusive) {
      return "streaming verdict inconclusive: " + live.detail;
    }
    if (!posthoc.empty()) {
      // Not necessarily an auditor bug: the P5.x audit also enforces
      // protocol-internal timestamp obligations that are invisible at
      // the history level the streaming conditions check.
      return posthoc + " [not caught live: streaming verdict ok]";
    }
  }
  return posthoc;
}

}  // namespace

ChaosReport run_chaos(const ChaosParams& params, std::ostream* progress) {
  ChaosReport report;
  for (const std::string& protocol : params.protocols) {
    const bool uses_abcast = protocol != "locking" && protocol != "aggregate";
    for (const double drop_rate : params.drop_rates) {
      CellOutcome cell;
      for (std::size_t i = 0; i < params.seeds_per_cell; ++i) {
        const std::uint64_t seed = params.base_seed + i;
        // Alternate broadcast algorithms so both see faults.
        const std::string broadcast =
            uses_abcast && (i % 2 == 1) ? "isis" : "sequencer";
        const std::string reason =
            run_one(params, protocol, broadcast, drop_rate, seed, report);
        ++report.runs;
        ++cell.runs;
        if (reason.empty()) {
          ++report.passed;
          ++cell.passed;
        } else {
          report.failures.push_back(
              {protocol, uses_abcast ? broadcast : "", drop_rate, seed, reason});
        }
      }
      if (progress != nullptr) {
        *progress << "chaos " << protocol << " drop=" << drop_rate << " seeds="
                  << cell.runs << " passed=" << cell.passed << "\n";
      }
    }
  }
  return report;
}

ChaosParams smoke_params() {
  ChaosParams params;
  params.protocols = {"mseq", "mlin", "locking"};
  params.drop_rates = {0.10};
  params.seeds_per_cell = 4;
  params.ops_per_process = 6;
  return params;
}

void write_report(std::ostream& out, const ChaosParams& params,
                  const ChaosReport& report) {
  out << "chaos sweep" << (params.batching ? " (batching on)" : "")
      << (params.stream ? " (streaming audit)" : "") << ": " << report.runs
      << " executions, " << report.passed << " passed, "
      << report.failures.size() << " failed\n";
  if (params.stream) {
    out << "  stream: windows=" << report.stream_windows
        << " mid_run_aborts=" << report.mid_run_aborts << "\n";
  }
  out << "  faults: drops=" << report.faults.drops
      << " duplicates=" << report.faults.duplicates
      << " delay_spikes=" << report.faults.delay_spikes
      << " partition_drops=" << report.faults.partition_drops << "\n";
  out << "  link: data=" << report.link.data_sent
      << " retransmits=" << report.link.retransmits
      << " acks=" << report.link.acks_sent
      << " dedup=" << report.link.duplicates_suppressed
      << " exhausted=" << report.link.exhausted << "\n";
  for (const ChaosFailure& failure : report.failures) {
    out << "  FAIL " << failure.protocol;
    if (!failure.broadcast.empty()) out << "/" << failure.broadcast;
    out << " drop=" << failure.drop_rate << " seed=" << failure.seed << ": "
        << failure.reason << "\n";
  }
}

}  // namespace mocc::chaos
