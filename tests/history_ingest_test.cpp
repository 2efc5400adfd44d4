// core::History ingestion of EXTERNALLY-ordered histories.
//
// Every other checker test builds histories from the simulator or from
// compact sequential patterns. The multicore engine (src/exec) instead
// hands the checkers histories whose invoke/response stamps come from a
// real-thread logical clock and whose synchronization order is an
// external commit-tid order — genuinely concurrent, overlapping
// m-operations that no simulator schedule produced. These tests pin the
// contract that path relies on: hand-built concurrent histories with
// known WW/OO/WO verdicts agree between the Theorem-7 fast check and the
// exact checker, and the OCC lost-update anomaly is rejected by both.
#include <gtest/gtest.h>

#include "core/admissibility.hpp"
#include "core/constraints.hpp"
#include "core/fast_check.hpp"
#include "core/legality.hpp"
#include "core/relations.hpp"
#include "util/relation.hpp"

namespace mocc::core {
namespace {

MOperation mop(ProcessId p, std::vector<Operation> ops, Time inv, Time resp) {
  return MOperation(p, std::move(ops), inv, resp);
}

/// Commit-tid order the way the exec engine supplies it: update i
/// precedes update j for every i < j in tid order.
WwRanks tid_order(const History& h, const std::vector<MOpId>& updates) {
  WwRanks ranks(h.size());
  for (std::size_t i = 0; i < updates.size(); ++i) ranks[updates[i]] = i;
  return ranks;
}

// Two fully-overlapping updates on the same object plus a later read:
// the external tid order resolves the write-write race that real time
// leaves open. Both checkers must accept under the order that matches
// the read and reject under the opposite order.
TEST(HistoryIngestTest, ExternalOrderResolvesConcurrentWrites) {
  History h(3, 1);
  const MOpId w1 = h.add(mop(0, {Operation::write(0, 1)}, 1, 10));
  const MOpId w2 = h.add(mop(1, {Operation::write(0, 2)}, 2, 11));
  h.add(mop(2, {Operation::read(0, 2, w2)}, 20, 21));
  ASSERT_TRUE(h.well_formed());
  ASSERT_TRUE(h.value_coherent());

  const auto good = fast_check_condition(h, Condition::kMLinearizability,
                                         tid_order(h, {w1, w2}), Constraint::kWW);
  EXPECT_TRUE(good.constraint_holds);
  EXPECT_TRUE(good.admissible);
  ASSERT_TRUE(good.witness.has_value());
  EXPECT_TRUE(is_legal_sequential_order(h, *good.witness));

  // Opposite tid order: the read of value 2 would have to serialize
  // before its writer is overwritten by w1 — but w1 now follows w2, so
  // the read (after both in real time) observes an overwritten version.
  const auto bad = fast_check_condition(h, Condition::kMLinearizability,
                                        tid_order(h, {w2, w1}), Constraint::kWW);
  EXPECT_TRUE(bad.constraint_holds);
  EXPECT_FALSE(bad.admissible);

  // The exact checker agrees with both verdicts when handed the same
  // base orders.
  util::BitRelation base_good = base_order(h, Condition::kMLinearizability);
  base_good.merge(ww_order(tid_order(h, {w1, w2})));
  EXPECT_TRUE(check_admissible(h, base_good).admissible);
  util::BitRelation base_bad = base_order(h, Condition::kMLinearizability);
  base_bad.merge(ww_order(tid_order(h, {w2, w1})));
  EXPECT_FALSE(check_admissible(h, base_bad).admissible);
}

// WW-constraint detection on externally-ordered histories: with only one
// of the two concurrent update pairs ordered, the WW constraint fails
// and Theorem 7 does not apply; the OO constraint (conflicting pairs
// only) can still hold when the unordered updates touch disjoint objects.
TEST(HistoryIngestTest, ConstraintKindsDifferOnDisjointUpdates) {
  History h(3, 2);
  const MOpId a = h.add(mop(0, {Operation::write(0, 1)}, 1, 10));
  h.add(mop(1, {Operation::write(1, 2)}, 2, 11));  // disjoint object
  const MOpId c = h.add(mop(2, {Operation::write(0, 3)}, 3, 12));
  ASSERT_TRUE(h.well_formed());

  // Order only the conflicting pair (a,c); the object-1 write stays
  // unordered against both.
  util::BitRelation partial(h.size());
  partial.add(a, c);
  util::BitRelation base = base_order(h, Condition::kMSequentialConsistency);
  base.merge(partial);
  const auto closed = base.transitive_closure();
  EXPECT_TRUE(satisfies(h, closed, Constraint::kOO));
  EXPECT_FALSE(satisfies(h, closed, Constraint::kWW));
  EXPECT_TRUE(satisfies(h, closed, Constraint::kWO));

  const auto fast = fast_check(h, base, Constraint::kWW);
  EXPECT_FALSE(fast.constraint_holds);  // Theorem 7 inapplicable as claimed

  const auto fast_oo = fast_check(h, base, Constraint::kOO);
  EXPECT_TRUE(fast_oo.constraint_holds);
  EXPECT_TRUE(fast_oo.admissible);
}

// The OCC lost-update anomaly, exactly as a broken engine would log it:
// two overlapping rmw m-operations both read x's initial version, both
// write x, tid-ordered one after the other. Not admissible under any of
// the three conditions — the second rmw's read must see the first's
// write once the tid order places it second.
TEST(HistoryIngestTest, LostUpdateAnomalyRejectedByBothCheckers) {
  History h(2, 1);
  const MOpId a = h.add(
      mop(0, {Operation::read(0, 0, kInitialMOp), Operation::write(0, 1)}, 1, 10));
  const MOpId b = h.add(
      mop(1, {Operation::read(0, 0, kInitialMOp), Operation::write(0, 1)}, 2, 11));
  ASSERT_TRUE(h.well_formed());
  ASSERT_TRUE(h.value_coherent());  // values alone cannot expose it

  const auto fast = fast_check_condition(h, Condition::kMSequentialConsistency,
                                         tid_order(h, {a, b}), Constraint::kWW);
  EXPECT_TRUE(fast.constraint_holds);
  EXPECT_FALSE(fast.legal);
  EXPECT_FALSE(fast.admissible);

  util::BitRelation base =
      base_order(h, Condition::kMSequentialConsistency);
  base.merge(ww_order(tid_order(h, {a, b})));
  EXPECT_FALSE(check_admissible(h, base).admissible);
  // And symmetrically under the other tid order.
  util::BitRelation rev =
      base_order(h, Condition::kMSequentialConsistency);
  rev.merge(ww_order(tid_order(h, {b, a})));
  EXPECT_FALSE(check_admissible(h, rev).admissible);
}

// The correct interleaving of the same workload (second rmw reads the
// first) is admissible — the anomaly above is what is rejected, not the
// concurrency.
TEST(HistoryIngestTest, SerializedRmwPairAccepted) {
  History h(2, 1);
  const MOpId a = h.add(
      mop(0, {Operation::read(0, 0, kInitialMOp), Operation::write(0, 1)}, 1, 10));
  const MOpId b = h.add(
      mop(1, {Operation::read(0, 1, a), Operation::write(0, 2)}, 2, 11));
  const auto fast = fast_check_condition(h, Condition::kMLinearizability,
                                         tid_order(h, {a, b}), Constraint::kWW);
  EXPECT_TRUE(fast.constraint_holds);
  EXPECT_TRUE(fast.admissible);
  ASSERT_TRUE(fast.witness.has_value());
  EXPECT_TRUE(is_legal_sequential_order(h, *fast.witness));
}

// Overlap alone never rejects: a fully-concurrent batch of queries over
// one update's result is m-linearizable whatever the stamps, as long as
// reads-from is consistent with the tid order.
TEST(HistoryIngestTest, FullyOverlappingQueriesAccepted) {
  History h(4, 2);
  std::vector<MOpId> updates;
  updates.push_back(h.add(
      mop(0, {Operation::write(0, 5), Operation::write(1, 6)}, 1, 100)));
  h.add(mop(1, {Operation::read(0, 5, updates[0])}, 2, 99));
  h.add(mop(2, {Operation::read(1, 6, updates[0])}, 3, 98));
  h.add(mop(3,
            {Operation::read(0, 5, updates[0]),
             Operation::read(1, 6, updates[0])},
            4, 97));
  ASSERT_TRUE(h.well_formed());
  const auto fast = fast_check_condition(h, Condition::kMLinearizability,
                                         tid_order(h, updates), Constraint::kWW);
  EXPECT_TRUE(fast.constraint_holds);
  EXPECT_TRUE(fast.admissible);
  EXPECT_TRUE(check_m_linearizable(h).admissible);
}

// Real-time edges from external stamps are load-bearing: a query that
// STARTS after an update's response cannot read the overwritten initial
// value under m-linearizability, but the same history with overlapping
// stamps is accepted. This is the property the engine's logical clock
// must get right (response stamp drawn after publication).
TEST(HistoryIngestTest, ExternalStampsCarryRealTime) {
  const auto build = [](Time query_invoke, Time query_response) {
    History h(2, 1);
    h.add(mop(0, {Operation::write(0, 9)}, 1, 10));
    h.add(mop(1, {Operation::read(0, 0, kInitialMOp)}, query_invoke,
              query_response));
    return h;
  };
  const History separated = build(20, 21);  // read after the write's resp
  const auto sep = fast_check_condition(separated, Condition::kMLinearizability,
                                        WwRanks(2), Constraint::kWW);
  EXPECT_FALSE(sep.admissible);
  EXPECT_FALSE(check_m_linearizable(separated).admissible);

  const History overlapping = build(2, 21);  // concurrent with the write
  const auto ovl = fast_check_condition(overlapping, Condition::kMLinearizability,
                                        WwRanks(2), Constraint::kWW);
  EXPECT_TRUE(ovl.admissible);
  EXPECT_TRUE(check_m_linearizable(overlapping).admissible);
}

}  // namespace
}  // namespace mocc::core
