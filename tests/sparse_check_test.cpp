// Differential suite for the sparse Theorem-7 check: sparse_fast_check
// against the dense oracle fast_check_condition under all three
// conditions, on the paper's figures, the three synthetic generators
// ranked four ways, protocol histories with and without seeded
// mutations, and the Theorem-2 reductions. The two must agree on every
// flag and on the detail, and every sparse witness must replay as a
// legal sequential order. Also here: verdicts, not aborts, on a read
// from an m-operation that never writes the object and on an external
// read from the reader itself, and the verdict-vs-simulation wall-time
// gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "api/system.hpp"
#include "core/audit.hpp"
#include "core/fast_check.hpp"
#include "core/generate.hpp"
#include "core/legality.hpp"
#include "core/relations.hpp"
#include "txn/generate.hpp"
#include "txn/reduction.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MOCC_SPARSE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define MOCC_SPARSE_TEST_SANITIZED 1
#endif
#endif
#ifndef MOCC_SPARSE_TEST_SANITIZED
#define MOCC_SPARSE_TEST_SANITIZED 0
#endif

namespace mocc::core {
namespace {

constexpr Condition kConditions[] = {Condition::kMSequentialConsistency,
                                     Condition::kMLinearizability, Condition::kMNormality};

/// Both checkers on `h` under every condition: equal flags and detail,
/// and a replayable sparse witness exactly when admissible.
void expect_agreement(const History& h, const WwRanks& ranks, const std::string& what) {
  for (const Condition condition : kConditions) {
    SCOPED_TRACE(what + " under " + condition_name(condition));
    const FastCheckResult dense = fast_check_condition(h, condition, ranks, Constraint::kWW);
    const FastCheckResult sparse = sparse_fast_check(h, condition, ranks);
    EXPECT_EQ(sparse.constraint_holds, dense.constraint_holds) << dense.detail;
    EXPECT_EQ(sparse.legal, dense.legal) << dense.detail;
    EXPECT_EQ(sparse.admissible, dense.admissible) << dense.detail;
    EXPECT_EQ(sparse.detail, dense.detail);
    ASSERT_EQ(sparse.witness.has_value(), sparse.admissible);
    if (sparse.witness.has_value()) {
      EXPECT_TRUE(is_legal_sequential_order(h, *sparse.witness));
    }
  }
}

enum class Ranking { kWitness, kResponse, kInvocation, kRandom };
constexpr Ranking kRankings[] = {Ranking::kWitness, Ranking::kResponse, Ranking::kInvocation,
                                 Ranking::kRandom};

const char* ranking_name(Ranking ranking) {
  switch (ranking) {
    case Ranking::kWitness: return "witness order";
    case Ranking::kResponse: return "response order";
    case Ranking::kInvocation: return "invocation order";
    case Ranking::kRandom: return "random order";
  }
  return "?";
}

/// Ranks every update of `h`; queries stay unranked. Ranks are spaced
/// out so that only their order matters.
WwRanks rank_updates(const History& h, Ranking ranking, util::Rng& rng) {
  std::vector<MOpId> updates;
  for (MOpId id = 0; id < h.size(); ++id) {
    if (h.mop(id).is_update()) updates.push_back(id);
  }
  const auto by = [&h](auto key) {
    return [&h, key](MOpId a, MOpId b) { return key(h.mop(a)) < key(h.mop(b)); };
  };
  switch (ranking) {
    case Ranking::kWitness:
      break;  // the generators add m-operations in their sequential-execution order
    case Ranking::kResponse:
      std::stable_sort(updates.begin(), updates.end(),
                       by([](const MOperation& m) { return m.response(); }));
      break;
    case Ranking::kInvocation:
      std::stable_sort(updates.begin(), updates.end(),
                       by([](const MOperation& m) { return m.invoke(); }));
      break;
    case Ranking::kRandom: {
      const std::vector<std::size_t> perm = util::random_permutation(updates.size(), rng);
      std::vector<MOpId> shuffled;
      for (const std::size_t i : perm) shuffled.push_back(updates[i]);
      updates = std::move(shuffled);
      break;
    }
  }
  WwRanks ranks(h.size());
  for (std::size_t i = 0; i < updates.size(); ++i) ranks[updates[i]] = 3 * i + 7;
  return ranks;
}

void expect_agreement_ranked_four_ways(const History& h, util::Rng& rng,
                                       const std::string& what) {
  for (const Ranking ranking : kRankings) {
    expect_agreement(h, rank_updates(h, ranking, rng), what + ", " + ranking_name(ranking));
  }
}

MOperation mop(ProcessId p, std::vector<Operation> ops, Time inv, Time resp) {
  return MOperation(p, std::move(ops), inv, resp);
}

TEST(SparseCheck, PaperFigures) {
  util::Rng rng(1998);
  // Figure 1: α, η, β, μ, δ (core_figures_test.cpp spells out the facts).
  History figure1(3, 3);
  const MOpId alpha = figure1.add(mop(
      0, {Operation::write(0, 1), Operation::write(1, 1), Operation::write(2, 1)}, 1, 10));
  const MOpId eta = figure1.add(mop(1, {Operation::write(0, 2), Operation::write(1, 2)}, 2, 12));
  figure1.add(mop(0, {Operation::read(0, 2, eta)}, 13, 14));
  figure1.add(mop(1, {Operation::read(1, 2, eta)}, 13, 14));
  figure1.add(mop(2, {Operation::read(2, 1, alpha), Operation::read(1, 2, eta)}, 15, 16));
  expect_agreement_ranked_four_ways(figure1, rng, "Figure 1");
  expect_agreement(figure1, WwRanks{1, 0, std::nullopt, std::nullopt, std::nullopt},
                   "Figure 1, eta before alpha");

  // Figures 2 and 3: H1 with the figure's ~ww, α ~ww~> γ ~ww~> δ, and
  // every other order of its three updates.
  History h1(2, 2);
  const MOpId a = h1.add(mop(0, {Operation::read(0, 0, kInitialMOp), Operation::write(1, 2)}, 1, 2));
  h1.add(mop(1, {Operation::write(0, 1)}, 1, 4));
  h1.add(mop(0, {Operation::read(1, 2, a)}, 5, 6));
  h1.add(mop(1, {Operation::write(1, 3)}, 5, 8));
  std::vector<std::uint64_t> order{0, 1, 2};
  do {
    const WwRanks ranks{order[0], order[1], std::nullopt, order[2]};
    expect_agreement(h1, ranks, "Figure 2 H1, ranks " + std::to_string(order[0]) +
                                    std::to_string(order[1]) + std::to_string(order[2]));
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(SparseCheck, GeneratedHistoriesRankedFourWays) {
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    util::Rng rng(seed * 6151);
    GeneratorParams params;
    params.num_processes = 1 + seed % 4;
    params.num_objects = 1 + seed % 5;
    params.num_mops = 4 + seed % 17;
    params.overlap = seed % 3 == 0 ? 0.45 : 0.3;
    const std::string tag = "seed " + std::to_string(seed);

    History admissible = generate_admissible_history(params, rng);
    expect_agreement_ranked_four_ways(admissible, rng, "admissible, " + tag);
    if (perturb_reads_from(admissible, rng, 1 + seed % 2) > 0) {
      expect_agreement_ranked_four_ways(admissible, rng, "perturbed, " + tag);
    }
    expect_agreement_ranked_four_ways(generate_free_history(params, rng), rng, "free, " + tag);
  }
}

// An external read that names its own m-operation (the history format's
// "self" writer, before the m-operation's write) is an rf self-loop: no
// sequential order serves it, and both checkers call the base order
// cyclic instead of failing the witness replay.
TEST(SparseCheck, ExternalReadFromItselfIsACycle) {
  History h(1, 1);
  h.add(mop(0, {Operation::read(0, 1, 0), Operation::write(0, 1)}, 1, 2));
  expect_agreement(h, WwRanks{0}, "read from itself");
  EXPECT_EQ(sparse_fast_check(h, Condition::kMLinearizability, WwRanks{0}).detail,
            "base order is cyclic");
}

TEST(SparseCheck, FallsBackToDenseWhenAWriterIsUnranked) {
  History h(2, 2);
  h.add(mop(0, {Operation::write(0, 1)}, 1, 10));
  h.add(mop(1, {Operation::write(1, 2)}, 2, 9));
  const WwRanks ranks{5, std::nullopt};
  expect_agreement(h, ranks, "one unranked writer");
  const FastCheckResult sparse = sparse_fast_check(h, Condition::kMLinearizability, ranks);
  EXPECT_FALSE(sparse.constraint_holds);
  EXPECT_NE(sparse.detail.find("WW-constraint"), std::string::npos) << sparse.detail;
}

struct ProtocolRun {
  History history;
  WwRanks ranks;
};

ProtocolRun run_protocol(const std::string& protocol, const std::string& broadcast,
                         std::uint64_t seed, const std::string& mutation,
                         std::size_t processes, std::size_t objects, std::size_t ops) {
  api::SystemConfig config;
  config.num_processes = processes;
  config.num_objects = objects;
  config.protocol = protocol;
  config.broadcast = broadcast;
  config.delay = "lan";
  config.seed = seed;
  config.mutation = mutation;
  api::System system(config);
  protocols::WorkloadParams params;
  params.ops_per_process = ops;
  system.run_workload(params);
  return {system.history(), system.recorder().ww_ranks()};
}

TEST(SparseCheck, ProtocolHistoriesAndMutants) {
  std::size_t coherent_mutants = 0;
  for (const char* protocol : {"mseq", "mlin", "mlin-narrow", "mlin-bcastq"}) {
    for (const char* broadcast : {"sequencer", "isis"}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::string tag = std::string(protocol) + "/" + broadcast + " seed " +
                                std::to_string(seed);
        const ProtocolRun clean = run_protocol(protocol, broadcast, seed, "", 3, 4, 12);
        expect_agreement(clean.history, clean.ranks, tag);
      }
    }
  }
  struct Mutant {
    const char* protocol;
    const char* broadcast;
    const char* mutation;
  };
  const Mutant mutants[] = {
      {"mseq", "sequencer", "seq-swap"},      {"mlin", "sequencer", "seq-swap"},
      {"mseq", "sequencer", "skip-delivery"}, {"mseq", "isis", "skip-delivery"},
      {"mlin", "sequencer", "skip-delivery"},
  };
  for (const Mutant& m : mutants) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const ProtocolRun run = run_protocol(m.protocol, m.broadcast, seed, m.mutation, 3, 2, 10);
      if (run.history.value_coherent()) ++coherent_mutants;
      expect_agreement(run.history, run.ranks,
                       std::string(m.protocol) + "/" + m.broadcast + "/" + m.mutation +
                           " seed " + std::to_string(seed));
    }
  }
  // The mutants that slip past value coherence are the ones only the
  // legality check can judge; make sure the sweep has some.
  EXPECT_GT(coherent_mutants, 0u);
}

TEST(SparseCheck, TheoremTwoReductions) {
  util::Rng rng(104729);
  txn::ScheduleParams params;
  params.num_entities = 3;
  params.max_actions_per_txn = 3;
  std::size_t feasible = 0;
  for (int trial = 0; trial < 120; ++trial) {
    params.num_txns = 2 + static_cast<std::size_t>(trial % 5);
    const txn::Schedule s = trial % 4 == 0 ? txn::generate_serial_schedule(params, rng)
                                           : txn::generate_interleaved_schedule(params, rng);
    const txn::ReductionResult reduction = txn::reduce_to_history(s);
    if (!reduction.feasible) continue;
    ++feasible;
    expect_agreement_ranked_four_ways(reduction.history, rng,
                                      "reduction of " + s.to_string());
  }
  EXPECT_GT(feasible, 30u);
}

// A skip-delivery mseq run where m12 reads x0 and x1 from m1, a failed
// transfer that wrote nothing but holds an abcast rank. The history is
// not value-coherent; each checker called directly must still return a
// verdict, naming the read.
TEST(SparseCheck, ReadFromAnMOpThatNeverWritesIsAVerdictNotAnAbort) {
  api::SystemConfig config;
  config.num_processes = 3;
  config.num_objects = 2;
  config.protocol = "mseq";
  config.broadcast = "sequencer";
  config.delay = "lan";
  config.seed = 10;
  config.mutation = "skip-delivery";
  api::System system(config);
  protocols::WorkloadParams params;
  params.ops_per_process = 10;
  system.run_workload(params);
  const History h = system.history();
  const WwRanks ranks = system.recorder().ww_ranks();
  const Condition msc = Condition::kMSequentialConsistency;

  const FastCheckResult dense = fast_check_condition(h, msc, ranks, Constraint::kWW);
  const FastCheckResult sparse = sparse_fast_check(h, msc, ranks);
  const FastCheckResult api = system.check_fast(msc);
  EXPECT_EQ(dense.detail, "m12 reads x0 from m1, which never writes x0");
  for (const FastCheckResult* result : {&dense, &sparse, &api}) {
    EXPECT_TRUE(result->constraint_holds);
    EXPECT_FALSE(result->legal);
    EXPECT_FALSE(result->admissible);
    EXPECT_EQ(result->detail, dense.detail);
  }
}

// The CI gate on a machine-independent ratio: the whole verdict on an
// 8k-m-op simulator history, deciding m-linearizability and auditing
// P5.x, takes no longer than simulating it. Timing means nothing without
// optimization or under a sanitizer, so those builds skip it; it runs in
// the default and Release builds.
TEST(SparseCheckGate, VerdictIsNoSlowerThanTheSimulation) {
#if !defined(__OPTIMIZE__) || MOCC_SPARSE_TEST_SANITIZED
  GTEST_SKIP() << "wall-time gate needs an optimized, uninstrumented build";
#endif
  api::SystemConfig config;
  config.num_processes = 4;
  config.num_objects = 8;
  config.protocol = "mlin";
  config.broadcast = "sequencer";
  config.delay = "lan";
  api::System system(config);
  protocols::WorkloadParams params;
  params.ops_per_process = 2000;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  system.run_workload(params);
  const Clock::time_point t1 = Clock::now();
  const FastCheckResult verdict = system.check_fast(Condition::kMLinearizability);
  const Clock::time_point t2 = Clock::now();
  const AuditReport audit = system.audit();
  const Clock::time_point t3 = Clock::now();
  ASSERT_TRUE(verdict.admissible) << verdict.detail;
  ASSERT_TRUE(audit.ok) << audit.to_string();
  EXPECT_EQ(system.history().size(), 8000u);
  const auto seconds = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  EXPECT_LE(t3 - t1, t1 - t0) << "check_fast took " << seconds(t2 - t1) << " s and audit "
                              << seconds(t3 - t2) << " s, the simulation " << seconds(t1 - t0)
                              << " s";
}

}  // namespace
}  // namespace mocc::core
