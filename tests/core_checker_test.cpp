// Tests for the exact admissibility checker (NP-complete in general,
// Theorems 1-2), the Theorem-7 polynomial checker, including
// property-style agreement sweeps over random histories, and the
// check_history pipeline that every verdict entry point runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/admissibility.hpp"
#include "core/fast_check.hpp"
#include "core/generate.hpp"
#include "core/legality.hpp"
#include "core/relations.hpp"
#include "core/verdict.hpp"
#include "util/rng.hpp"

namespace mocc::core {
namespace {

MOperation mop(ProcessId p, std::vector<Operation> ops, Time inv, Time resp) {
  return MOperation(p, std::move(ops), inv, resp);
}

// ------------------------------------------------- exact checker, basics

TEST(ExactChecker, TrivialHistoryAdmissible) {
  History h(1, 1);
  h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
  const auto result = check_m_linearizable(h);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.admissible);
  ASSERT_TRUE(result.witness.has_value());
  EXPECT_TRUE(is_legal_sequential_order(h, *result.witness));
}

TEST(ExactChecker, EmptyHistoryAdmissible) {
  History h(1, 1);
  EXPECT_TRUE(check_m_linearizable(h).admissible);
}

TEST(ExactChecker, StaleReadNotMLinearizable) {
  // w(x)1 completes; later w(x)2 completes; later still a read returns 1.
  History h(3, 1);
  const auto w1 = h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
  h.add(mop(1, {Operation::write(0, 2)}, 3, 4));
  h.add(mop(2, {Operation::read(0, 1, w1)}, 5, 6));
  EXPECT_FALSE(check_m_linearizable(h).admissible);
}

TEST(ExactChecker, StaleReadStillMSequentiallyConsistent) {
  // Same history: without real-time order the read can serialize before
  // the second write.
  History h(3, 1);
  const auto w1 = h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
  h.add(mop(1, {Operation::write(0, 2)}, 3, 4));
  h.add(mop(2, {Operation::read(0, 1, w1)}, 5, 6));
  const auto result = check_m_sequentially_consistent(h);
  EXPECT_TRUE(result.admissible);
  EXPECT_TRUE(is_legal_sequential_order(h, *result.witness));
}

TEST(ExactChecker, StaleReadNotMNormal) {
  // m-normality orders the ops because they share object x: same verdict
  // as m-linearizability here.
  History h(3, 1);
  const auto w1 = h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
  h.add(mop(1, {Operation::write(0, 2)}, 3, 4));
  h.add(mop(2, {Operation::read(0, 1, w1)}, 5, 6));
  EXPECT_FALSE(check_m_normal(h).admissible);
}

TEST(ExactChecker, MNormalityWeakerThanMLinearizability) {
  // Two m-operations on disjoint objects, real-time ordered, but the
  // later one reads a value consistent only with executing first. Under
  // m-linearizability the real-time edge forbids it; m-normality does not
  // order disjoint-object m-operations, so the history is m-normal.
  History h(2, 2);
  // P0: writes x0:=1 at [1,2] then reads x1=0-from-init at [3,4].
  h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
  // P1: writes x1:=5 at [5,6] ... and P0's read happened before it: fine.
  // Build the interesting case instead: P1 writes x1 BEFORE P0 reads it,
  // in real time, yet P0 reads the initial value.
  History h2(2, 2);
  h2.add(mop(1, {Operation::write(1, 5)}, 1, 2));
  const auto r = h2.add(mop(0, {Operation::read(1, 0, kInitialMOp)}, 3, 4));
  (void)r;
  EXPECT_FALSE(check_m_linearizable(h2).admissible);
  // m-normality orders them too (they share x1), so also inadmissible:
  EXPECT_FALSE(check_m_normal(h2).admissible);
  // but m-sequential consistency allows the read to serialize first:
  EXPECT_TRUE(check_m_sequentially_consistent(h2).admissible);
}

TEST(ExactChecker, MNormalityAllowsDisjointRealTimeReordering) {
  // The defining gap between m-normality and m-linearizability: two
  // non-overlapping m-operations on disjoint objects whose only
  // consistent serialization inverts real time.
  History h(2, 2);
  // P0: q1 = r(x0)0-init r(x1)5-from-u  — reads u's write BEFORE u runs
  //     in real time? Build: u = w(x1)5 on P1 at [5,6]; q1 at [1,2] would
  //     read from the future. Instead use the classic: u at [1,2],
  //     q at [3,4] reading x0 initial while someone wrote x0 at [1,2]…
  // Simplest concrete witness:
  //   P0: a = w(x0)1        [1,2]
  //   P1: b = r(x1)0-init   [3,4]   (disjoint from a)
  // plus P1: c = w(x1)2     [5,6]
  // and P0: d = r(x0)1-from-a, r(x1)2-from-c at [7,8].
  const auto a = h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
  h.add(mop(1, {Operation::read(1, 0, kInitialMOp)}, 3, 4));
  const auto c = h.add(mop(1, {Operation::write(1, 2)}, 5, 6));
  h.add(mop(0, {Operation::read(0, 1, a), Operation::read(1, 2, c)}, 7, 8));
  EXPECT_TRUE(check_m_normal(h).admissible);
  EXPECT_TRUE(check_m_linearizable(h).admissible);
}

TEST(ExactChecker, CyclicBaseOrderInadmissible) {
  // Two m-operations reading from each other (possible in a recorded
  // history with forward references) make ~H cyclic.
  History h(2, 2);
  h.add(MOperation(0, {Operation::write(0, 1), Operation{OpType::kRead, 1, 2, 1}},
                   1, 2));
  h.add(MOperation(1, {Operation::write(1, 2), Operation{OpType::kRead, 0, 1, 0}},
                   1, 2));
  const auto result = check_m_sequentially_consistent(h);
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.admissible);
}

TEST(ExactChecker, DcasStyleInterleavingAdmissible) {
  // Two DCAS-like m-operations on {x0,x1}, second reads first's writes.
  History h(2, 2);
  const auto d1 = h.add(mop(0,
                            {Operation::read(0, 0, kInitialMOp),
                             Operation::read(1, 0, kInitialMOp),
                             Operation::write(0, 1), Operation::write(1, 1)},
                            1, 2));
  h.add(mop(1,
            {Operation::read(0, 1, d1), Operation::read(1, 1, d1),
             Operation::write(0, 2), Operation::write(1, 2)},
            3, 4));
  EXPECT_TRUE(check_m_linearizable(h).admissible);
}

TEST(ExactChecker, TornDcasNotAdmissible) {
  // A reader sees x0 from d1 but x1 from d2 where d1, d2 both write both:
  // no serialization explains it under any of the three conditions (the
  // atomicity the paper's model is for).
  History h(3, 2);
  const auto d1 = h.add(mop(0, {Operation::write(0, 1), Operation::write(1, 1)}, 1, 2));
  const auto d2 = h.add(mop(1, {Operation::write(0, 2), Operation::write(1, 2)}, 3, 4));
  h.add(mop(2, {Operation::read(0, 1, d1), Operation::read(1, 2, d2)}, 5, 6));
  EXPECT_FALSE(check_m_sequentially_consistent(h).admissible);
  EXPECT_FALSE(check_m_linearizable(h).admissible);
  EXPECT_FALSE(check_m_normal(h).admissible);
}

TEST(ExactChecker, ReversedTornDcasAlsoInadmissible) {
  History h(3, 2);
  const auto d1 = h.add(mop(0, {Operation::write(0, 1), Operation::write(1, 1)}, 1, 2));
  const auto d2 = h.add(mop(1, {Operation::write(0, 2), Operation::write(1, 2)}, 3, 4));
  h.add(mop(2, {Operation::read(0, 2, d2), Operation::read(1, 1, d1)}, 5, 6));
  EXPECT_FALSE(check_m_sequentially_consistent(h).admissible);
}

TEST(ExactChecker, BudgetExhaustionReportsIncomplete) {
  util::Rng rng(5);
  GeneratorParams params;
  params.num_mops = 14;
  params.num_processes = 7;
  History h = generate_admissible_history(params, rng);
  AdmissibilityOptions options;
  options.max_states = 2;
  options.use_rw_pruning = false;
  const auto result = check_m_sequentially_consistent(h, options);
  EXPECT_FALSE(result.completed);
}

TEST(ExactChecker, OptionsVariantsAgree) {
  // With/without memoization and rw-pruning must return the same verdict.
  util::Rng rng(99);
  GeneratorParams params;
  params.num_mops = 8;
  params.num_processes = 3;
  params.num_objects = 2;
  for (int trial = 0; trial < 20; ++trial) {
    History h = generate_free_history(params, rng);
    AdmissibilityOptions plain;
    plain.use_rw_pruning = false;
    plain.use_memoization = false;
    AdmissibilityOptions pruned;  // defaults: both on
    const bool verdict_plain = check_m_linearizable(h, plain).admissible;
    const bool verdict_pruned = check_m_linearizable(h, pruned).admissible;
    EXPECT_EQ(verdict_plain, verdict_pruned) << "trial " << trial;
  }
}

// ------------------------------------------------ generated populations

class GeneratedAdmissible : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratedAdmissible, AdmissibleByConstructionUnderAllConditions) {
  util::Rng rng(GetParam());
  GeneratorParams params;
  params.num_mops = 12;
  params.num_processes = 4;
  params.num_objects = 3;
  History h = generate_admissible_history(params, rng);
  ASSERT_TRUE(h.well_formed());
  for (const Condition c : {Condition::kMSequentialConsistency,
                            Condition::kMLinearizability, Condition::kMNormality}) {
    const auto result = check_condition(h, c);
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(result.admissible) << condition_name(c);
    EXPECT_TRUE(is_legal_sequential_order(h, *result.witness));
  }
}

TEST_P(GeneratedAdmissible, Lemma6AdmissibleImpliesLegal) {
  util::Rng rng(GetParam() * 31 + 7);
  GeneratorParams params;
  params.num_mops = 10;
  History h = generate_admissible_history(params, rng);
  const auto order = closed_base_order(h, Condition::kMLinearizability);
  EXPECT_TRUE(legal(h, order));
}

TEST_P(GeneratedAdmissible, PerturbationUsuallyDetected) {
  // Rewired reads must never crash the checker, and the checker verdict
  // must equal brute-force agreement between conditions' monotonicity:
  // m-lin admissible => m-normal admissible => m-SC admissible.
  util::Rng rng(GetParam() * 1337 + 11);
  GeneratorParams params;
  params.num_mops = 9;
  params.num_processes = 3;
  params.num_objects = 2;
  History h = generate_admissible_history(params, rng);
  perturb_reads_from(h, rng, 2);
  const bool mlin = check_m_linearizable(h).admissible;
  const bool mnorm = check_m_normal(h).admissible;
  const bool msc = check_m_sequentially_consistent(h).admissible;
  if (mlin) {
    EXPECT_TRUE(mnorm);
  }
  if (mnorm) {
    EXPECT_TRUE(msc);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedAdmissible,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

// ------------------------------------------------------- Theorem 7 check

TEST(FastCheck, ReportsConstraintViolation) {
  // Two unordered updates: not under WW-constraint.
  History h(2, 2);
  h.add(mop(0, {Operation::write(0, 1)}, 1, 10));
  h.add(mop(1, {Operation::write(1, 2)}, 2, 9));
  const auto result =
      fast_check(h, base_order(h, Condition::kMLinearizability), Constraint::kWW);
  EXPECT_FALSE(result.constraint_holds);
  EXPECT_FALSE(result.admissible);
  EXPECT_FALSE(result.detail.empty());
}

TEST(FastCheck, LegalConstrainedHistoryAdmissibleWithWitness) {
  // Serial execution: WW holds trivially, legality holds, witness valid.
  History h(2, 1);
  const auto w1 = h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
  const auto w2 = h.add(mop(1, {Operation::write(0, 2)}, 3, 4));
  h.add(mop(0, {Operation::read(0, 2, w2)}, 5, 6));
  (void)w1;
  const auto result =
      fast_check(h, base_order(h, Condition::kMLinearizability), Constraint::kWW);
  EXPECT_TRUE(result.constraint_holds);
  EXPECT_TRUE(result.legal);
  EXPECT_TRUE(result.admissible);
  ASSERT_TRUE(result.witness.has_value());
  EXPECT_TRUE(is_legal_sequential_order(h, *result.witness));
}

TEST(FastCheck, IllegalConstrainedHistoryRejected) {
  // β ~> γ ~> α with α reading from β: WW holds (all updates ordered by
  // real time), legality fails => Lemma 6 says inadmissible.
  History h(3, 1);
  const auto beta = h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
  h.add(mop(1, {Operation::write(0, 2)}, 3, 4));
  h.add(mop(2, {Operation::read(0, 1, beta)}, 5, 6));
  const auto result =
      fast_check(h, base_order(h, Condition::kMLinearizability), Constraint::kWW);
  EXPECT_TRUE(result.constraint_holds);
  EXPECT_FALSE(result.legal);
  EXPECT_FALSE(result.admissible);
}

TEST(FastCheck, CyclicBaseOrderReported) {
  History h(2, 2);
  h.add(MOperation(0, {Operation::write(0, 1), Operation{OpType::kRead, 1, 2, 1}},
                   1, 2));
  h.add(MOperation(1, {Operation::write(1, 2), Operation{OpType::kRead, 0, 1, 0}},
                   1, 2));
  const auto result =
      fast_check(h, base_order(h, Condition::kMSequentialConsistency),
                 Constraint::kWW);
  EXPECT_FALSE(result.admissible);
  EXPECT_NE(result.detail.find("cyclic"), std::string::npos);
}

class FastExactAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastExactAgreement, Theorem7MatchesExactOnWWConstrainedHistories) {
  // Build WW-constrained histories by adding a total order over updates
  // (mimicking the protocols' ~ww): generate a single-process history —
  // process order is total — then compare verdicts.
  util::Rng rng(GetParam() * 7919);
  GeneratorParams params;
  params.num_processes = 1;  // total process order => WW-constrained
  params.num_mops = 9;
  params.num_objects = 3;
  params.write_probability = 0.7;
  History h = generate_free_history(params, rng);

  const auto base = base_order(h, Condition::kMSequentialConsistency);
  const auto fast = fast_check(h, base, Constraint::kWW);
  const auto exact = check_admissible(h, base);
  ASSERT_TRUE(exact.completed);
  if (fast.constraint_holds) {
    EXPECT_EQ(fast.admissible, exact.admissible);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastExactAgreement,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                           14, 15, 16));

// ------------------------------------------------- check_history contract

/// Two overlapping writes of x, then a later read of the second. The
/// rows below rank the writes; the read is a query and stays unranked.
History racing_writes_then_read() {
  History h(3, 1);
  h.add(mop(0, {Operation::write(0, 1)}, 1, 10));
  const MOpId w2 = h.add(mop(1, {Operation::write(0, 2)}, 2, 11));
  h.add(mop(2, {Operation::read(0, 2, w2)}, 20, 21));
  return h;
}

/// w(x)1 completes, then w(x)2, then a read returns 1: m-sequentially
/// consistent, not m-linearizable.
History stale_read() {
  History h(3, 1);
  const MOpId w1 = h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
  h.add(mop(1, {Operation::write(0, 2)}, 3, 4));
  h.add(mop(2, {Operation::read(0, 1, w1)}, 5, 6));
  return h;
}

/// w(x)1 completes, then a read returns x's initial value.
History overwritten_init_read() {
  History h(2, 1);
  h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
  h.add(mop(1, {Operation::read(0, 0, kInitialMOp)}, 3, 4));
  return h;
}

struct ContractRow {
  const char* name;
  History history;
  WwRanks ranks;
  std::uint64_t budget;
  Outcome expected;
  const char* detail;  ///< substring the verdict's detail must contain
};

TEST(CheckHistory, ContractTable) {
  History incoherent(2, 1);
  const MOpId writer = incoherent.add(mop(0, {Operation::write(0, 1)}, 1, 2));
  incoherent.add(mop(1, {Operation::read(0, 7, writer)}, 3, 4));

  const ContractRow rows[] = {
      {"incoherent read", incoherent, WwRanks(2), 1000, Outcome::kViolation,
       "value-coherent"},
      {"ranked and legal", racing_writes_then_read(),
       WwRanks{0, 1, std::nullopt}, 1000, Outcome::kOk, "Theorem 7"},
      // The reverse tid order makes the read see an overwritten value.
      {"ranked and illegal", racing_writes_then_read(),
       WwRanks{1, 0, std::nullopt}, 1000, Outcome::kViolation,
       "Theorem 7 fast check: m2 reads x0 from m1, but m0 writes x0"},
      // The read names the initial write, which the detail calls "init".
      {"ranked, reads an overwritten init", overwritten_init_read(),
       WwRanks{0, std::nullopt}, 1000, Outcome::kViolation,
       "Theorem 7 fast check: m1 reads x0 from init, but m0 writes x0 and init ~> m0 ~> m1"},
      {"duplicate rank", racing_writes_then_read(), WwRanks{4, 4, std::nullopt},
       1000, Outcome::kViolation, "two m-operations claim ww rank 4"},
      {"unranked and inadmissible", stale_read(), WwRanks(3), 1000,
       Outcome::kViolation, "exact check"},
      // Admissible, but the search needs more than one state to show it
      // (stale_read would not do: the ~rw pruning rejects it outright).
      {"unranked, budget 1", racing_writes_then_read(), WwRanks(3), 1,
       Outcome::kUndecided, "undecided"},
      // A budget of 0 decides nothing beyond steps 1-3: even this
      // inadmissible history passes, with the skip spelled out.
      {"unranked, budget 0", stale_read(), WwRanks(3), 0, Outcome::kOk, "not searched"},
  };
  for (const ContractRow& row : rows) {
    SCOPED_TRACE(row.name);
    const Verdict verdict =
        check_history(row.history, Condition::kMLinearizability, row.ranks, row.budget);
    EXPECT_EQ(verdict.outcome, row.expected) << verdict.detail;
    EXPECT_NE(verdict.detail.find(row.detail), std::string::npos) << verdict.detail;
    const bool ranked = std::any_of(row.ranks.begin(), row.ranks.end(),
                                    [](const auto& rank) { return rank.has_value(); });
    if (verdict.fast.has_value()) {
      EXPECT_TRUE(ranked);
      EXPECT_FALSE(verdict.exact.has_value());
    }
    if (verdict.ok() && verdict.fast.has_value()) {
      ASSERT_TRUE(verdict.fast->witness.has_value());
      EXPECT_TRUE(is_legal_sequential_order(row.history, *verdict.fast->witness));
    }
  }
}

// History::add refuses a process subhistory that is not sequential, so
// no History reaching check_history can fail step 1: the "not
// well-formed" row of the contract is enforced at construction.
TEST(CheckHistory, NotWellFormedHistoryCannotBeBuilt) {
  History h(1, 1);
  h.add(mop(0, {Operation::write(0, 1)}, 1, 10));
  EXPECT_DEATH(h.add(mop(0, {Operation::write(0, 2)}, 5, 12)), "not sequential");
}

TEST(CheckHistory, WwOrderMatchesRankOrder) {
  const util::BitRelation ww = ww_order(WwRanks{7, std::nullopt, 3, 5});
  EXPECT_TRUE(ww.has(2, 3));
  EXPECT_TRUE(ww.has(3, 0));
  EXPECT_TRUE(ww.has(2, 0));
  EXPECT_FALSE(ww.has(0, 2));
  EXPECT_FALSE(ww.has(1, 0));
  EXPECT_FALSE(ww.has(0, 1));
  EXPECT_EQ(ww.pair_count(), 3u);
}

}  // namespace
}  // namespace mocc::core
