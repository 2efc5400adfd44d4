// Chaos harness: sweep fault rates across seeds, run every replica
// protocol over the faulty network with the reliable link enabled, and
// feed each execution through the core checkers.
//
// This is the discharge obligation for the reliable-channel assumption:
// the §5 protocols were proven over reliable channels; the harness shows
// the stack (protocol over ReliableLink over a dropping / duplicating /
// partitioning network) still produces executions the paper's
// consistency conditions accept.
//
// Verification per execution:
//   - mseq / mlin variants: the P5.x audit (core/audit) — legality,
//     ~ww admissibility, and the protocol-specific timestamp obligations.
//   - locking / aggregate: core::check_history against m-linearizability
//     with the lock-point ranks the baseline records as ~ww, so Theorem
//     7's polynomial check decides; a verdict from anywhere else (an
//     update without a rank) fails the run.
//   - every protocol: no reliable-link retry budget exhaustion and no
//     operation left incomplete.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fault/reliable_link.hpp"

namespace mocc::chaos {

struct ChaosParams {
  /// Protocols to sweep. mseq/mlin alternate the broadcast algorithm by
  /// seed parity so both sequencer and isis see faults.
  std::vector<std::string> protocols = {"mseq", "mlin", "locking"};
  /// Drop rates swept per protocol (duplicate rate rides along).
  std::vector<double> drop_rates = {0.02, 0.05, 0.10};
  double duplicate_rate = 0.05;
  double delay_spike_rate = 0.02;
  std::uint64_t delay_spike = 50;
  /// Executions per (protocol, drop rate) cell.
  std::size_t seeds_per_cell = 100;
  std::uint64_t base_seed = 1;
  /// One partition/heal cycle per execution: node 0 isolated during
  /// [partition_start, partition_heal).
  bool partition = true;
  std::uint64_t partition_start = 300;
  std::uint64_t partition_heal = 900;

  /// Run the sweep with the hot-path batching layer on: sequencer
  /// group-commit (sequencer-broadcast cells only), link coalescing, and
  /// mlin query rounds. Exercises batch framing against drops,
  /// duplicates, and partitions with the same checkers.
  bool batching = false;

  std::size_t num_processes = 3;
  std::size_t num_objects = 6;
  /// m-operations per process.
  std::size_t ops_per_process = 8;

  /// Attach a StreamingAuditor (obs/live.hpp) as each run's trace sink.
  /// A violation stops the simulator mid-run and fails the cell;
  /// otherwise the live verdict is cross-checked against the post-hoc
  /// oracle, and any disagreement (including a live `inconclusive`) is a
  /// failure.
  bool stream = false;
  /// Deliberate protocol mutation (SystemConfig::mutation values) applied
  /// to every run whose protocol/broadcast the mutation is defined for;
  /// incompatible cells run unmutated. With `stream`, a mutated run that
  /// the auditor misses mid-run still fails via the post-hoc cross-check.
  std::string mutation;
};

/// One failed execution, with enough to reproduce it.
struct ChaosFailure {
  std::string protocol;
  std::string broadcast;
  double drop_rate = 0.0;
  std::uint64_t seed = 0;
  std::string reason;
};

struct ChaosReport {
  std::size_t runs = 0;
  std::size_t passed = 0;
  std::vector<ChaosFailure> failures;
  /// Aggregates across every execution.
  fault::FaultStats faults;
  fault::LinkStats link;
  /// Runs the streaming auditor aborted before workload completion
  /// (zero unless ChaosParams::stream).
  std::size_t mid_run_aborts = 0;

  bool ok() const { return failures.empty() && runs > 0; }
};

/// Runs the sweep; `progress` (may be null) receives one line per cell.
ChaosReport run_chaos(const ChaosParams& params, std::ostream* progress);

/// Smoke configuration for CI: 2 protocols x 1 rate x few seeds.
ChaosParams smoke_params();

void write_report(std::ostream& out, const ChaosParams& params,
                  const ChaosReport& report);

}  // namespace mocc::chaos
