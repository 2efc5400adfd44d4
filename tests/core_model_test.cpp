// Unit tests for the history model: m-operations, histories, and the
// order-relation builders (§2).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>

#include "core/history.hpp"
#include "core/moperation.hpp"
#include "core/relations.hpp"
#include "util/rng.hpp"

namespace mocc::core {
namespace {

MOperation mop(ProcessId p, std::vector<Operation> ops, Time inv, Time resp) {
  return MOperation(p, std::move(ops), inv, resp);
}

// ------------------------------------------------------------ MOperation

TEST(MOperation, DerivesObjectSets) {
  const MOperation m = mop(0,
                           {Operation::read(0, 0, kInitialMOp),
                            Operation::write(1, 5), Operation::write(2, 6)},
                           1, 2);
  EXPECT_EQ(m.objects(), (std::vector<ObjectId>{0, 1, 2}));
  EXPECT_EQ(m.robjects(), (std::vector<ObjectId>{0}));
  EXPECT_EQ(m.wobjects(), (std::vector<ObjectId>{1, 2}));
  EXPECT_TRUE(m.is_update());
  EXPECT_TRUE(m.writes(1));
  EXPECT_FALSE(m.writes(0));
  EXPECT_TRUE(m.reads(0));
  EXPECT_TRUE(m.touches(2));
}

TEST(MOperation, QueryDetection) {
  const MOperation m = mop(0, {Operation::read(0, 0, kInitialMOp)}, 1, 2);
  EXPECT_TRUE(m.is_query());
  EXPECT_FALSE(m.is_update());
}

TEST(MOperation, InternalReadsExcluded) {
  // w(x)5 then r(x)5: the read is satisfied internally — no external
  // constraint (paper §2.2: "we ignore such read operations").
  const MOperation m = mop(0,
                           {Operation::write(0, 5), Operation::read(0, 5, 0),
                            Operation::read(1, 0, kInitialMOp)},
                           1, 2);
  ASSERT_EQ(m.external_reads().size(), 1u);
  EXPECT_EQ(m.external_reads()[0].object, 1u);
}

TEST(MOperation, ReadBeforeOwnWriteIsExternal) {
  // r(x) then w(x): the read happened before the write — external.
  const MOperation m = mop(0,
                           {Operation::read(0, 0, kInitialMOp), Operation::write(0, 5)},
                           1, 2);
  ASSERT_EQ(m.external_reads().size(), 1u);
  EXPECT_EQ(m.external_reads()[0].object, 0u);
}

TEST(MOperation, FinalWritesKeepLastPerObject) {
  // Overwritten internal writes are discarded (paper §2.2).
  const MOperation m = mop(0,
                           {Operation::write(0, 1), Operation::write(0, 2),
                            Operation::write(1, 3)},
                           1, 2);
  ASSERT_EQ(m.final_writes().size(), 2u);
  EXPECT_EQ(m.final_write_value(0), 2);
  EXPECT_EQ(m.final_write_value(1), 3);
}

// Reference for MOperation's sorted-vector derivation: the same five
// vectors read straight off std::set and std::map, in one pass.
struct DerivedSets {
  std::vector<ObjectId> objects;
  std::vector<ObjectId> robjects;
  std::vector<ObjectId> wobjects;
  std::vector<Operation> external_reads;
  std::vector<Operation> final_writes;
};

DerivedSets reference_derivation(const std::vector<Operation>& ops) {
  DerivedSets derived;
  std::set<ObjectId> all;
  std::set<ObjectId> read_set;
  std::set<ObjectId> write_set;
  std::set<ObjectId> written_so_far;
  std::map<ObjectId, std::size_t> last_write_pos;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    all.insert(op.object);
    if (op.type == OpType::kRead) {
      read_set.insert(op.object);
      if (written_so_far.find(op.object) == written_so_far.end()) {
        derived.external_reads.push_back(op);
      }
    } else {
      write_set.insert(op.object);
      written_so_far.insert(op.object);
      last_write_pos[op.object] = i;
    }
  }
  derived.objects.assign(all.begin(), all.end());
  derived.robjects.assign(read_set.begin(), read_set.end());
  derived.wobjects.assign(write_set.begin(), write_set.end());
  for (const auto& [object, pos] : last_write_pos) {
    derived.final_writes.push_back(ops[pos]);
  }
  return derived;
}

std::vector<std::tuple<OpType, ObjectId, Value, MOpId>> fields(
    const std::vector<Operation>& ops) {
  std::vector<std::tuple<OpType, ObjectId, Value, MOpId>> out;
  for (const Operation& op : ops) out.emplace_back(op.type, op.object, op.value, op.reads_from);
  return out;
}

void expect_reference_sets(const std::vector<Operation>& ops) {
  const DerivedSets expected = reference_derivation(ops);
  const MOperation m = mop(0, ops, 1, 2);
  EXPECT_EQ(m.objects(), expected.objects);
  EXPECT_EQ(m.robjects(), expected.robjects);
  EXPECT_EQ(m.wobjects(), expected.wobjects);
  EXPECT_EQ(fields(m.external_reads()), fields(expected.external_reads));
  EXPECT_EQ(fields(m.final_writes()), fields(expected.final_writes));
}

TEST(MOperationDifferential, DerivedSetsMatchTheSetAndMapReference) {
  util::Rng rng(20261018);
  // Shapes the random sequences must have produced, so the comparison
  // covers each derivation rule.
  int repeated_object = 0;
  int read_after_own_write = 0;
  int write_after_read = 0;
  int several_writes_to_one_object = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t length = rng.next_below(13);
    const std::uint64_t num_objects = 1 + rng.next_below(6);
    std::vector<Operation> ops;
    std::set<ObjectId> reads;
    std::map<ObjectId, int> writes;
    bool repeated = false;
    for (std::size_t i = 0; i < length; ++i) {
      const auto object = static_cast<ObjectId>(rng.next_below(num_objects));
      const Value value = rng.next_in(-5, 5);
      repeated = repeated || reads.count(object) != 0 || writes.count(object) != 0;
      if (rng.next_bool(0.5)) {
        const MOpId from =
            rng.next_bool(0.3) ? kInitialMOp : static_cast<MOpId>(rng.next_below(50));
        ops.push_back(Operation::read(object, value, from));
        if (writes.count(object) != 0) ++read_after_own_write;
        reads.insert(object);
      } else {
        ops.push_back(Operation::write(object, value));
        if (reads.count(object) != 0) ++write_after_read;
        if (writes[object]++ == 1) ++several_writes_to_one_object;
      }
    }
    if (repeated) ++repeated_object;
    expect_reference_sets(ops);
  }
  EXPECT_GT(repeated_object, 100);
  EXPECT_GT(read_after_own_write, 100);
  EXPECT_GT(write_after_read, 100);
  EXPECT_GT(several_writes_to_one_object, 100);
}

// A snapshot-shaped m-operation at 4096 objects: 4096 writes (here in a
// shuffled object order) followed by 4096 reads, all internal.
TEST(MOperationDifferential, SnapshotSizedMOperationMatchesTheReference) {
  constexpr std::size_t kObjects = 4096;
  util::Rng rng(4096);
  std::vector<Operation> ops;
  for (const std::size_t x : util::random_permutation(kObjects, rng)) {
    ops.push_back(Operation::write(static_cast<ObjectId>(x), static_cast<Value>(x)));
  }
  for (const std::size_t x : util::random_permutation(kObjects, rng)) {
    ops.push_back(Operation::read(static_cast<ObjectId>(x), static_cast<Value>(x), 0));
  }
  expect_reference_sets(ops);
  const MOperation m = mop(0, ops, 1, 2);
  EXPECT_TRUE(m.external_reads().empty());
  EXPECT_EQ(m.final_writes().size(), kObjects);
  EXPECT_EQ(m.objects().size(), kObjects);
}

TEST(MOperationDeath, RespondBeforeInvokeAborts) {
  EXPECT_DEATH(mop(0, {}, 5, 2), "responds before");
}

// --------------------------------------------------------------- History

TEST(History, AddAssignsSequentialIds) {
  History h(2, 2);
  EXPECT_EQ(h.add(mop(0, {Operation::write(0, 1)}, 1, 2)), 0u);
  EXPECT_EQ(h.add(mop(1, {Operation::write(1, 2)}, 1, 2)), 1u);
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.process_ops(0), (std::vector<MOpId>{0}));
  EXPECT_EQ(h.process_ops(1), (std::vector<MOpId>{1}));
}

TEST(HistoryDeath, OverlappingSameProcessAborts) {
  History h(1, 1);
  h.add(mop(0, {Operation::write(0, 1)}, 1, 10));
  EXPECT_DEATH(h.add(mop(0, {Operation::write(0, 2)}, 5, 20)), "sequential");
}

TEST(History, WellFormedAfterConstruction) {
  History h(2, 1);
  h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
  h.add(mop(0, {Operation::write(0, 2)}, 3, 4));
  h.add(mop(1, {Operation::read(0, 1, 0)}, 2, 3));
  EXPECT_TRUE(h.well_formed());
}

TEST(History, RfObjects) {
  History h(2, 2);
  const auto w = h.add(mop(0, {Operation::write(0, 1), Operation::write(1, 2)}, 1, 2));
  const auto r = h.add(
      mop(1, {Operation::read(0, 1, w), Operation::read(1, 2, w)}, 3, 4));
  EXPECT_EQ(h.rfobjects(r, w), (std::vector<ObjectId>{0, 1}));
  EXPECT_TRUE(h.reads_from(w, r));
  EXPECT_FALSE(h.reads_from(r, w));
}

TEST(History, ConflictRequiresSharedObjectWithWrite) {
  History h(3, 3);
  const auto a = h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
  const auto b = h.add(mop(1, {Operation::read(0, 1, a)}, 3, 4));
  const auto c = h.add(mop(2, {Operation::read(1, 0, kInitialMOp)}, 3, 4));
  EXPECT_TRUE(h.conflict(a, b));   // write-read on x0
  EXPECT_FALSE(h.conflict(b, c));  // disjoint objects
  EXPECT_FALSE(h.conflict(a, a));  // never self-conflicting
}

TEST(History, ReadersDoNotConflict) {
  History h(2, 1);
  const auto a = h.add(mop(0, {Operation::read(0, 0, kInitialMOp)}, 1, 2));
  const auto b = h.add(mop(1, {Operation::read(0, 0, kInitialMOp)}, 1, 2));
  EXPECT_FALSE(h.conflict(a, b));
}

TEST(History, InterfereTriple) {
  // δ writes x; α reads x from δ; η writes x  =>  interfere(α, δ, η).
  History h(3, 1);
  const auto delta = h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
  const auto eta = h.add(mop(1, {Operation::write(0, 2)}, 3, 4));
  const auto alpha = h.add(mop(2, {Operation::read(0, 1, delta)}, 5, 6));
  EXPECT_TRUE(h.interfere(alpha, delta, eta));
  EXPECT_FALSE(h.interfere(alpha, eta, delta));  // α does not read from η
  EXPECT_FALSE(h.interfere(delta, alpha, eta));  // δ does not read at all
}

TEST(History, EquivalenceSamePerProcessContent) {
  History h1(2, 1);
  const auto w1 = h1.add(mop(0, {Operation::write(0, 7)}, 1, 2));
  h1.add(mop(1, {Operation::read(0, 7, w1)}, 3, 4));

  // Same content, different times, different addition order.
  History h2(2, 1);
  h2.add(mop(1, {Operation::read(0, 7, 1)}, 30, 40));
  h2.add(mop(0, {Operation::write(0, 7)}, 10, 20));

  EXPECT_TRUE(h1.equivalent(h2));
  EXPECT_TRUE(h2.equivalent(h1));
}

TEST(History, EquivalenceBrokenByDifferentReadsFrom) {
  History h1(3, 1);
  const auto a = h1.add(mop(0, {Operation::write(0, 7)}, 1, 2));
  h1.add(mop(1, {Operation::write(0, 7)}, 1, 2));
  h1.add(mop(2, {Operation::read(0, 7, a)}, 3, 4));

  History h2(3, 1);
  h2.add(mop(0, {Operation::write(0, 7)}, 1, 2));
  const auto b2 = h2.add(mop(1, {Operation::write(0, 7)}, 1, 2));
  h2.add(mop(2, {Operation::read(0, 7, b2)}, 3, 4));

  EXPECT_FALSE(h1.equivalent(h2));
}

TEST(History, EquivalenceBrokenByDifferentValues) {
  History h1(1, 1);
  h1.add(mop(0, {Operation::write(0, 7)}, 1, 2));
  History h2(1, 1);
  h2.add(mop(0, {Operation::write(0, 8)}, 1, 2));
  EXPECT_FALSE(h1.equivalent(h2));
}

TEST(History, DeriveReadsFromUniqueValues) {
  History h(2, 1);
  h.add(mop(0, {Operation::write(0, 7)}, 1, 2));
  // Read with an unresolved link (kInitialMOp placeholder, value 7).
  h.add(MOperation(1, {Operation{OpType::kRead, 0, 7, kInitialMOp}}, 3, 4));
  ASSERT_TRUE(h.derive_reads_from());
  EXPECT_TRUE(h.reads_from(0, 1));
}

TEST(History, DeriveReadsFromInitialValue) {
  History h(1, 1);
  h.add(MOperation(0, {Operation{OpType::kRead, 0, 0, 99}}, 1, 2));
  ASSERT_TRUE(h.derive_reads_from());
  EXPECT_EQ(h.mop(0).external_reads()[0].reads_from, kInitialMOp);
}

TEST(History, DeriveReadsFromFailsOnAmbiguousWrites) {
  History h(2, 1);
  h.add(mop(0, {Operation::write(0, 7)}, 1, 2));
  h.add(mop(1, {Operation::write(0, 7)}, 3, 4));
  EXPECT_FALSE(h.derive_reads_from());
}

TEST(History, DeriveReadsFromFailsOnOrphanValue) {
  History h(1, 1);
  h.add(MOperation(0, {Operation{OpType::kRead, 0, 42, kInitialMOp}}, 1, 2));
  EXPECT_FALSE(h.derive_reads_from());
}

// -------------------------------------------------------------- relations

class RelationsFixture : public ::testing::Test {
 protected:
  // P0: α = w(x0)1        [1, 2]
  //     β = r(x0)1 (α)    [5, 6]
  // P1: γ = w(x1)2        [3, 4]
  //     δ = r(x0)1 (α)    [7, 8]
  RelationsFixture() : h(2, 2) {
    alpha = h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
    gamma = h.add(mop(1, {Operation::write(1, 2)}, 3, 4));
    beta = h.add(mop(0, {Operation::read(0, 1, alpha)}, 5, 6));
    delta = h.add(mop(1, {Operation::read(0, 1, alpha)}, 7, 8));
  }
  History h;
  MOpId alpha, beta, gamma, delta;
};

TEST_F(RelationsFixture, ProcessOrder) {
  const auto po = process_order(h);
  EXPECT_TRUE(po.has(alpha, beta));
  EXPECT_TRUE(po.has(gamma, delta));
  EXPECT_FALSE(po.has(alpha, gamma));
  EXPECT_FALSE(po.has(beta, alpha));
  EXPECT_EQ(po.pair_count(), 2u);
}

TEST_F(RelationsFixture, ReadsFromOrder) {
  const auto rf = reads_from_order(h);
  EXPECT_TRUE(rf.has(alpha, beta));
  EXPECT_TRUE(rf.has(alpha, delta));
  EXPECT_EQ(rf.pair_count(), 2u);
}

TEST_F(RelationsFixture, RealTimeOrder) {
  const auto rt = real_time_order(h);
  EXPECT_TRUE(rt.has(alpha, gamma));  // resp 2 < inv 3
  EXPECT_TRUE(rt.has(alpha, beta));
  EXPECT_TRUE(rt.has(gamma, beta));   // resp 4 < inv 5
  EXPECT_TRUE(rt.has(beta, delta));
  EXPECT_FALSE(rt.has(beta, gamma));
}

TEST_F(RelationsFixture, ObjectOrderRequiresSharedObject) {
  const auto oo = object_order(h);
  EXPECT_TRUE(oo.has(alpha, beta));    // share x0, real-time ordered
  EXPECT_FALSE(oo.has(alpha, gamma));  // disjoint objects
  EXPECT_FALSE(oo.has(gamma, beta));   // disjoint objects
  EXPECT_TRUE(oo.has(alpha, delta));
}

TEST_F(RelationsFixture, BaseOrderPerCondition) {
  const auto msc = base_order(h, Condition::kMSequentialConsistency);
  EXPECT_TRUE(msc.has(alpha, beta));
  EXPECT_FALSE(msc.has(alpha, gamma));  // no real-time in m-SC

  const auto mlin = base_order(h, Condition::kMLinearizability);
  EXPECT_TRUE(mlin.has(alpha, gamma));

  const auto mnorm = base_order(h, Condition::kMNormality);
  EXPECT_FALSE(mnorm.has(alpha, gamma));  // disjoint objects: not ordered
  EXPECT_TRUE(mnorm.has(alpha, delta));
}

TEST_F(RelationsFixture, ConditionNames) {
  EXPECT_STREQ(condition_name(Condition::kMSequentialConsistency),
               "m-sequential-consistency");
  EXPECT_STREQ(condition_name(Condition::kMLinearizability), "m-linearizability");
  EXPECT_STREQ(condition_name(Condition::kMNormality), "m-normality");
}

TEST(Relations, OverlappingOpsNotRealTimeOrdered) {
  History h(2, 1);
  const auto a = h.add(mop(0, {Operation::write(0, 1)}, 1, 10));
  const auto b = h.add(mop(1, {Operation::write(0, 2)}, 5, 15));
  const auto rt = real_time_order(h);
  EXPECT_FALSE(rt.has(a, b));
  EXPECT_FALSE(rt.has(b, a));
}

TEST(Relations, TouchingIntervalsNotOrdered) {
  // resp(α) == inv(β): NOT ordered (strict <).
  History h(2, 1);
  const auto a = h.add(mop(0, {Operation::write(0, 1)}, 1, 5));
  const auto b = h.add(mop(1, {Operation::write(0, 2)}, 5, 9));
  EXPECT_FALSE(real_time_order(h).has(a, b));
}

}  // namespace
}  // namespace mocc::core
