// mocc-check: systematic exploration of message-delivery interleavings.
//
// The chaos harness and trace audits sample ~100 seeds per
// configuration; the paper's claims are universally quantified. This
// library turns the per-schedule checkers (the Theorem 7 fast check over
// the recorded ~ww ranks, the P5.x audit) into a small-scope *verifier*:
// it drives the deterministic Simulator in controlled mode
// (sim::ScheduleController), enumerating every message-delivery
// interleaving of a small configuration by depth-first search over
// choice sequences, re-executing the system from scratch per schedule,
// and checking the recorded history at every terminal state.
//
// Reduction — naive enumeration explodes factorially, so the explorer
// prunes with two sound techniques:
//
//   Sleep sets (Godefroid-style DPOR) keyed on the commuting structure
//   the actor model guarantees: deliveries to DIFFERENT destination
//   nodes commute (each dispatch mutates only its destination's state
//   and appends sends in a fixed relative order), deliveries to the SAME
//   destination conflict. After a branch is fully explored it joins the
//   node's sleep set; sleeping events are inherited by sibling subtrees
//   while they stay independent of the chosen event, and a schedule that
//   reaches a node with every enabled delivery asleep is abandoned —
//   every continuation is a commutation of an explored one.
//
//   State hashing: because actors are deterministic, the global state is
//   a function of the per-destination sequence of delivered message
//   contents. The explorer fingerprints that sequence with two
//   independent 64-bit FNV chains and prunes a revisited state when a
//   previous visit explored at least as much (its sleep set was a subset
//   of the current one — the Godefroid/Wolper soundness condition).
//
// Scope limits (see docs/static-analysis.md): faults and the reliable
// link stay off, invocations are issued eagerly (internal events always
// dispatch before delivery choices), and each Mazurkiewicz trace class
// is checked through one representative with canonical step-counter
// timing — conditions sensitive to the real-time order BETWEEN
// commuting deliveries are checked on that representative only.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mscript/program.hpp"

namespace mocc::api {
class System;
struct SystemConfig;
}

namespace mocc::check {

/// One small-scope configuration to exhaust. The workload is fixed and
/// deterministic (fixed_workload), so delivery order is the ONLY source
/// of nondeterminism and a choice sequence fully determines a run.
struct ExploreConfig {
  std::size_t num_processes = 2;
  std::size_t num_objects = 2;
  std::size_t ops_per_process = 2;
  /// "mseq" | "mlin" | "mlin-narrow" | "mlin-bcastq" | "locking" |
  /// "aggregate" (api::SystemConfig::protocol).
  std::string protocol = "mseq";
  /// "sequencer" | "isis" (ignored by locking/aggregate).
  std::string broadcast = "sequencer";
  /// Protocol mutation under test (api::SystemConfig::mutation); empty =
  /// the correct protocol.
  std::string mutation;
  /// Explore with the hot-path batching layer on: sequencer group-commit
  /// (abcast protocols under the sequencer broadcast) and mlin query
  /// rounds. Small thresholds so both size and age flushes appear in the
  /// schedule space. Link coalescing stays out of scope — the reliable
  /// link is off in every controlled-mode run.
  bool batching = false;

  // --- Budgets (exact explored/pruned counts are reported either way).
  /// Maximum number of re-executions (complete=false when hit; 0 = none).
  std::uint64_t max_schedules = 1u << 20;
  /// Maximum choice points along one schedule before it is truncated.
  std::size_t max_depth = 4096;

  /// Some mutations first surface as protocol-internal findings (P5.x
  /// timestamp invariants) on schedules whose recorded history is still
  /// admissible — e.g. a skipped delivery leaves timestamps stale before
  /// any read observes the lost write. When set, such findings are
  /// counted (stats.audit_only_violations) but exploration continues
  /// until a schedule whose HISTORY is inadmissible (fast check,
  /// stuckness) — the kind a rebuilt-from-trace audit (trace_query
  /// --audit) reproduces.
  bool history_violations_only = false;

  // --- Reduction toggles. Both off = naive full enumeration (the
  // baseline the DPOR speedup is measured against).
  bool use_sleep_sets = true;
  bool use_state_hash = true;
  /// Test knob: keep only this many low bits of the PRIMARY state hash
  /// (the second chain stays full-width), forcing bucket collisions to
  /// exercise the collision-handling path. 64 = production behavior.
  unsigned hash_bits = 64;
};

/// One choice point of a recorded schedule: how many deliveries were
/// enabled, which index was picked, and the structural signature of the
/// picked delivery (used by replay to detect divergence against a
/// changed binary).
struct ChoiceRecord {
  std::uint32_t enabled = 0;
  std::uint32_t chosen = 0;
  std::uint64_t seq = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t kind = 0;
  std::uint64_t payload_hash = 0;
};

/// A replayable violating schedule (see replay.hpp for the file format).
struct Counterexample {
  ExploreConfig config;
  std::string reason;
  std::vector<ChoiceRecord> choices;
};

struct ExploreStats {
  /// Re-executions started (terminal + pruned + truncated).
  std::uint64_t runs_total = 0;
  /// Schedules that ran to quiescence and were checked.
  std::uint64_t schedules_checked = 0;
  /// Branches never explored because they were asleep (commutation with
  /// an explored sibling).
  std::uint64_t sleep_pruned = 0;
  /// Runs abandoned at a state an earlier visit had covered.
  std::uint64_t hash_pruned = 0;
  std::uint64_t choice_points = 0;
  std::uint64_t max_depth_seen = 0;
  std::uint64_t depth_truncations = 0;
  /// Distinct state fingerprints interned (both chains agreeing).
  std::uint64_t distinct_states = 0;
  /// Lookups whose primary (possibly masked) hash matched an entry whose
  /// secondary chain disagreed — detected, never pruned on.
  std::uint64_t hash_collisions = 0;
  /// Protocol-internal (P5.x) violations skipped over because
  /// history_violations_only was set.
  std::uint64_t audit_only_violations = 0;
};

struct ExploreResult {
  /// True when the DFS exhausted the schedule tree within every budget.
  bool complete = false;
  ExploreStats stats;
  /// First violating schedule found (exploration stops at it).
  std::optional<Counterexample> violation;
};

/// Exhausts (up to budgets) every delivery interleaving of `config` and
/// checks each terminal schedule. Asserts the scope is small
/// (processes/objects <= 5, ops <= 8): the tool is a verifier for
/// small-scope configs, not a load generator.
ExploreResult explore(const ExploreConfig& config);

/// The controlled-mode SystemConfig a scope runs under — shared by the
/// explorer and by replay so a counterexample re-executes the exact
/// system its schedule condemned (including the batching knobs).
api::SystemConfig system_config_for(const ExploreConfig& config);

/// The fixed per-process programs explored for a config: a deterministic
/// mix of single-object RMWs (fetch_add), multi-object updates
/// (transfer), and multi-object queries (sum) chosen so footprints
/// overlap across processes. Index = process.
std::vector<std::vector<mscript::Program>> fixed_workload(const ExploreConfig& config);

/// Admissibility verdict on one terminated schedule. Shared by the
/// explorer and by replay so a counterexample re-judges under exactly the
/// checks that condemned it.
struct ScheduleVerdict {
  /// Empty = admissible; otherwise the violation reason.
  std::string violation;
  /// True when the violation is visible in the recorded history alone
  /// (admissibility, stuckness) — i.e. reproducible by a
  /// rebuilt-from-trace audit. False for protocol-internal (P5.x
  /// timestamp) findings.
  bool history_level = false;
};

/// Judges a quiescent system driven with fixed_workload(config):
/// completion (stuck schedules are violations), then core::check_history
/// of the protocol's claimed condition with no exact budget, so the
/// Theorem-7 fast check over the recorded ranks (abcast positions or
/// lock points) decides and a verdict from anywhere else (an update
/// without a rank) is a violation, then the P5.x audit for auditable
/// protocols.
ScheduleVerdict check_terminal_schedule(const api::System& system,
                                        const ExploreConfig& config,
                                        std::uint64_t completed_ops);

}  // namespace mocc::check
