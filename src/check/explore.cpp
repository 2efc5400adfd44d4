#include "check/explore.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "api/system.hpp"
#include "core/verdict.hpp"
#include "mscript/library.hpp"
#include "util/assert.hpp"

namespace mocc::check {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer: the second, independent hash chain.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Structural signature of a pending delivery. Deliberately excludes the
/// send seq: seq numbers depend on the global interleaving, while sleep
/// sets and state fingerprints must agree across commuted paths that
/// carry the same messages.
std::uint64_t choice_signature(const sim::ScheduleController::Choice& choice) {
  std::uint64_t h = kFnvOffset;
  const auto fold = [&h](std::uint64_t v) {
    h ^= v;
    h *= kFnvPrime;
  };
  fold(choice.from);
  fold(choice.to);
  fold(choice.kind);
  fold(choice.payload_hash);
  return h;
}

/// Multiset inclusion of two ascending-sorted vectors.
bool sorted_subset(const std::vector<std::uint64_t>& sub,
                   const std::vector<std::uint64_t>& super) {
  if (sub.size() > super.size()) return false;
  std::size_t j = 0;
  for (const std::uint64_t v : sub) {
    while (j < super.size() && super[j] < v) ++j;
    if (j == super.size() || super[j] != v) return false;
    ++j;
  }
  return true;
}

class Explorer final : public sim::ScheduleController {
 public:
  explicit Explorer(const ExploreConfig& config) : cfg_(config) {
    hash_mask_ = cfg_.hash_bits >= 64
                     ? ~0ull
                     : (std::uint64_t{1} << cfg_.hash_bits) - 1;
  }

  ExploreResult run_all();

  std::size_t choose(const std::vector<Choice>& pending) override;

 private:
  /// One choice point of the DFS tree, persisted across re-executions.
  struct Node {
    std::vector<Choice> enabled;         ///< ascending send-seq
    std::vector<std::uint64_t> sigs;     ///< structural signature per entry
    std::vector<std::uint8_t> sleeping;  ///< entry sleep ∪ explored siblings
    std::size_t chosen = 0;
    std::size_t explored = 0;  ///< branches whose subtree is done
    bool pruned = false;       ///< abandoned at entry (sleep/state prune)
  };

  /// Visits of one state fingerprint: the full-width secondary hash (the
  /// masked primary is the table key) plus every entry sleep the state
  /// was explored under.
  struct StateEntry {
    std::uint64_t h2 = 0;
    std::vector<std::vector<std::uint64_t>> sleeps;
  };

  void reset_run_state();
  void advance_state(const Choice& choice);
  std::vector<std::uint64_t> canonical_sleep(const Node& node) const;
  /// True = keep exploring from this state; false = a previous visit
  /// covered at least as much (its sleep ⊆ `sleep`).
  bool visit_state(std::vector<std::uint64_t> sleep);
  static std::size_t first_awake(const Node& node, std::size_t from);
  /// Advances the deepest unfinished node to its next awake branch;
  /// false when the whole tree is explored.
  bool backtrack();
  Counterexample make_counterexample(std::string reason) const;

  const ExploreConfig cfg_;
  std::uint64_t hash_mask_ = ~0ull;
  ExploreStats stats_;
  bool budget_hit_ = false;

  std::vector<Node> path_;  ///< DFS spine, shared by successive runs

  // --- per-run state --------------------------------------------------
  std::size_t depth_ = 0;
  bool aborted_ = false;
  std::shared_ptr<std::uint64_t> completed_;
  /// Per-destination rolling hashes of delivered message contents; the
  /// global fingerprint XORs them, so orders that differ only across
  /// destinations — which commute — hash equal.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> chains_;
  std::uint64_t global1_ = 0;
  std::uint64_t global2_ = 0;

  std::unordered_map<std::uint64_t, std::vector<StateEntry>> states_;
};

void Explorer::reset_run_state() {
  depth_ = 0;
  aborted_ = false;
  completed_ = std::make_shared<std::uint64_t>(0);
  chains_.assign(cfg_.num_processes, {0, 0});
  global1_ = 0;
  global2_ = 0;
  for (std::size_t d = 0; d < chains_.size(); ++d) {
    chains_[d].first = kFnvOffset ^ mix64(d + 1);
    chains_[d].second = mix64(d * kFnvPrime + 7);
    global1_ ^= chains_[d].first;
    global2_ ^= chains_[d].second;
  }
}

void Explorer::advance_state(const Choice& choice) {
  MOCC_ASSERT(choice.to < chains_.size());
  auto& [h1, h2] = chains_[choice.to];
  global1_ ^= h1;
  global2_ ^= h2;
  const std::uint64_t sig = choice_signature(choice);
  h1 = (h1 ^ sig) * kFnvPrime;
  h2 = mix64(h2 ^ (sig + 0x9e3779b97f4a7c15ull));
  global1_ ^= h1;
  global2_ ^= h2;
}

std::vector<std::uint64_t> Explorer::canonical_sleep(const Node& node) const {
  std::vector<std::uint64_t> sleep;
  for (std::size_t i = 0; i < node.enabled.size(); ++i) {
    if (node.sleeping[i] != 0) sleep.push_back(node.sigs[i]);
  }
  std::sort(sleep.begin(), sleep.end());
  return sleep;
}

bool Explorer::visit_state(std::vector<std::uint64_t> sleep) {
  auto& bucket = states_[global1_ & hash_mask_];
  for (StateEntry& entry : bucket) {
    if (entry.h2 != global2_) {
      // Masked-primary collision between distinct states: detected by
      // the independent secondary chain, never pruned on.
      ++stats_.hash_collisions;
      continue;
    }
    for (const std::vector<std::uint64_t>& stored : entry.sleeps) {
      if (sorted_subset(stored, sleep)) return false;
    }
    entry.sleeps.push_back(std::move(sleep));
    return true;
  }
  ++stats_.distinct_states;
  StateEntry entry;
  entry.h2 = global2_;
  entry.sleeps.push_back(std::move(sleep));
  bucket.push_back(std::move(entry));
  return true;
}

std::size_t Explorer::first_awake(const Node& node, std::size_t from) {
  for (std::size_t i = from; i < node.enabled.size(); ++i) {
    if (node.sleeping[i] == 0) return i;
  }
  return kNone;
}

std::size_t Explorer::choose(const std::vector<Choice>& pending) {
  MOCC_ASSERT(!pending.empty());
  const std::size_t depth = depth_++;

  if (depth < path_.size()) {
    // Prefix replay: the execution is a pure function of the choice
    // sequence, so the pending set must match what this node recorded.
    Node& node = path_[depth];
    MOCC_ASSERT_MSG(pending.size() == node.enabled.size(),
                    "mocc-check: prefix replay diverged (pending-set size)");
    MOCC_DEBUG_ASSERT(choice_signature(pending[node.chosen]) ==
                      node.sigs[node.chosen]);
    advance_state(pending[node.chosen]);
    return node.chosen;
  }

  ++stats_.choice_points;
  if (depth >= cfg_.max_depth) {
    ++stats_.depth_truncations;
    budget_hit_ = true;
    aborted_ = true;
    return kAbortRun;
  }

  Node node;
  node.enabled = pending;
  node.sigs.reserve(pending.size());
  for (const Choice& choice : pending) {
    node.sigs.push_back(choice_signature(choice));
  }
  node.sleeping.assign(pending.size(), 0);

  if (cfg_.use_sleep_sets && depth > 0) {
    // Sleep inheritance. The child's pending list is the parent's minus
    // the chosen entry (relative order preserved) with this dispatch's
    // new sends appended, so child index j < |parent|-1 maps onto parent
    // index j, skipping the chosen slot. A sleeping parent entry stays
    // asleep while it is independent of the chosen delivery — deliveries
    // to different destinations commute; same destination conflicts.
    const Node& parent = path_[depth - 1];
    const Choice& prev = parent.enabled[parent.chosen];
    const std::size_t surviving = parent.enabled.size() - 1;
    MOCC_ASSERT(pending.size() >= surviving);
    for (std::size_t j = 0; j < surviving; ++j) {
      const std::size_t i = j < parent.chosen ? j : j + 1;
      MOCC_DEBUG_ASSERT(node.sigs[j] == parent.sigs[i]);
      if (parent.sleeping[i] != 0 && parent.enabled[i].to != prev.to) {
        node.sleeping[j] = 1;
      }
    }
  }

  if (cfg_.use_state_hash && !visit_state(canonical_sleep(node))) {
    ++stats_.hash_pruned;
    node.pruned = true;
    path_.push_back(std::move(node));
    aborted_ = true;
    return kAbortRun;
  }

  const std::size_t pick = first_awake(node, 0);
  if (pick == kNone) {
    // Every enabled delivery is asleep: each continuation commutes with
    // an already-explored schedule.
    stats_.sleep_pruned += node.enabled.size();
    node.pruned = true;
    path_.push_back(std::move(node));
    aborted_ = true;
    return kAbortRun;
  }

  node.chosen = pick;
  advance_state(node.enabled[pick]);
  path_.push_back(std::move(node));
  return pick;
}

bool Explorer::backtrack() {
  while (!path_.empty()) {
    Node& node = path_.back();
    if (node.pruned) {
      path_.pop_back();
      continue;
    }
    node.sleeping[node.chosen] = 1;
    ++node.explored;
    const std::size_t next = first_awake(node, node.chosen + 1);
    if (next != kNone) {
      node.chosen = next;
      return true;
    }
    // Node exhausted. Entries asleep but never chosen here are branches
    // the sleep set proved redundant.
    std::size_t asleep = 0;
    for (const std::uint8_t flag : node.sleeping) asleep += flag;
    MOCC_ASSERT(asleep >= node.explored);
    stats_.sleep_pruned += asleep - node.explored;
    path_.pop_back();
  }
  return false;
}

Counterexample Explorer::make_counterexample(std::string reason) const {
  Counterexample cx;
  cx.config = cfg_;
  cx.reason = std::move(reason);
  cx.choices.reserve(path_.size());
  for (const Node& node : path_) {
    MOCC_ASSERT(!node.pruned);
    ChoiceRecord record;
    record.enabled = static_cast<std::uint32_t>(node.enabled.size());
    record.chosen = static_cast<std::uint32_t>(node.chosen);
    const Choice& choice = node.enabled[node.chosen];
    record.seq = choice.seq;
    record.from = choice.from;
    record.to = choice.to;
    record.kind = choice.kind;
    record.payload_hash = choice.payload_hash;
    cx.choices.push_back(record);
  }
  return cx;
}

ExploreResult Explorer::run_all() {
  ExploreResult result;
  while (true) {
    if (stats_.runs_total >= cfg_.max_schedules) {
      budget_hit_ = true;
      break;
    }
    ++stats_.runs_total;
    reset_run_state();

    api::System system(system_config_for(cfg_));
    system.set_schedule_controller(this);

    const auto workload = fixed_workload(cfg_);
    const std::shared_ptr<std::uint64_t> completed = completed_;
    for (std::size_t p = 0; p < workload.size(); ++p) {
      for (const mscript::Program& program : workload[p]) {
        system.submit(static_cast<core::ProcessId>(p), 1, program,
                      [completed](const protocols::InvocationOutcome&) {
                        ++*completed;
                      });
      }
    }
    system.run();
    stats_.max_depth_seen =
        std::max<std::uint64_t>(stats_.max_depth_seen, depth_);

    if (!aborted_) {
      // Terminal schedule. Intern the terminal state with an empty sleep
      // set (nothing left to explore): revisits of this state — terminal
      // or not — are covered.
      const bool fresh = !cfg_.use_state_hash || visit_state({});
      if (fresh) {
        ++stats_.schedules_checked;
        ScheduleVerdict verdict =
            check_terminal_schedule(system, cfg_, *completed_);
        if (!verdict.decided) {
          ++stats_.exact_undecided;
          budget_hit_ = true;
        } else if (!verdict.violation.empty()) {
          if (cfg_.history_violations_only && !verdict.history_level) {
            ++stats_.audit_only_violations;
          } else {
            result.violation =
                make_counterexample(std::move(verdict.violation));
            break;
          }
        }
      } else {
        ++stats_.hash_pruned;
      }
    }

    if (!backtrack()) break;
  }

  result.stats = stats_;
  result.complete = !budget_hit_ && !result.violation.has_value();
  return result;
}

}  // namespace

std::vector<std::vector<mscript::Program>> fixed_workload(
    const ExploreConfig& config) {
  std::vector<std::vector<mscript::Program>> out(config.num_processes);
  const std::size_t objects = config.num_objects;
  for (std::size_t p = 0; p < config.num_processes; ++p) {
    out[p].reserve(config.ops_per_process);
    for (std::size_t i = 0; i < config.ops_per_process; ++i) {
      const auto a = static_cast<mscript::ObjectId>((p + i) % objects);
      const auto b = static_cast<mscript::ObjectId>((a + 1) % objects);
      if (i % 2 == 0) {
        // Single-object RMW; footprints rotate so processes collide.
        out[p].push_back(mscript::lib::make_fetch_add(
            a, static_cast<mscript::Value>(1 + 10 * p + i)));
      } else if (p % 2 == 0) {
        // Multi-object conditional update.
        out[p].push_back(b == a ? mscript::lib::make_fetch_add(a, 1)
                                : mscript::lib::make_transfer(a, b, 1));
      } else {
        // Multi-object query.
        if (b == a) {
          const mscript::ObjectId footprint[] = {a};
          out[p].push_back(mscript::lib::make_sum(footprint));
        } else {
          const mscript::ObjectId footprint[] = {a, b};
          out[p].push_back(mscript::lib::make_sum(footprint));
        }
      }
    }
  }
  return out;
}

ScheduleVerdict check_terminal_schedule(const api::System& system,
                                        const ExploreConfig& config,
                                        std::uint64_t completed_ops) {
  ScheduleVerdict verdict;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(config.num_processes) * config.ops_per_process;
  if (completed_ops != expected) {
    verdict.violation = "stuck schedule: " + std::to_string(completed_ops) +
                        " of " + std::to_string(expected) +
                        " m-operations completed at quiescence";
    verdict.history_level = true;
    return verdict;
  }
  // History level first: its violations replay into a failing
  // trace_query audit, so they make the better counterexamples. Value
  // coherence inside it catches lost deliveries whose residue is a read
  // whose VALUE diverges from its writer's record while the reads-from
  // edges stay legal (e.g. the skip-delivery mutation).
  const core::Verdict history_verdict = core::check_history(
      system.history(), api::claimed_condition(config.protocol),
      system.recorder().ww_ranks(), config.exact_states_budget);
  if (history_verdict.outcome == core::Outcome::kUndecided) {
    verdict.decided = false;
    return verdict;
  }
  if (history_verdict.violation()) {
    verdict.violation = history_verdict.detail;
    verdict.history_level = true;
    return verdict;
  }
  if (system.supports_audit()) {
    const core::AuditReport audit = system.audit();
    if (!audit.ok) {
      verdict.violation = "P5.x audit failed: " + audit.to_string();
    }
  }
  return verdict;
}

api::SystemConfig system_config_for(const ExploreConfig& config) {
  api::SystemConfig out;
  out.num_processes = config.num_processes;
  out.num_objects = config.num_objects;
  out.protocol = config.protocol;
  out.broadcast = config.broadcast;
  out.mutation = config.mutation;
  out.delay = "constant";  // never sampled in controlled mode
  out.seed = 1;
  if (config.batching) {
    const bool uses_abcast =
        config.protocol != "locking" && config.protocol != "aggregate";
    if (uses_abcast && config.broadcast == "sequencer") {
      // Small enough that both flush paths land in the schedule space:
      // size flushes when two submissions race, age flushes (the timer
      // is an internal event, dispatched before delivery choices) when
      // one waits alone.
      out.batching.abcast_batch_max = 2;
      out.batching.abcast_batch_age = 6;
    }
    if (config.protocol.rfind("mlin", 0) == 0) {
      out.batching.batch_queries = true;
    }
  }
  return out;
}

ExploreResult explore(const ExploreConfig& config) {
  MOCC_ASSERT_MSG(config.num_processes >= 1 && config.num_processes <= 5,
                  "mocc-check is a small-scope verifier: 1..5 processes");
  MOCC_ASSERT_MSG(config.num_objects >= 1 && config.num_objects <= 5,
                  "mocc-check is a small-scope verifier: 1..5 objects");
  MOCC_ASSERT_MSG(config.ops_per_process >= 1 && config.ops_per_process <= 8,
                  "mocc-check is a small-scope verifier: 1..8 ops/process");
  MOCC_ASSERT_MSG(config.hash_bits >= 1 && config.hash_bits <= 64,
                  "hash_bits must be 1..64");
  Explorer explorer(config);
  return explorer.run_all();
}

}  // namespace mocc::check
