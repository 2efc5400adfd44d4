// Unit tests for src/util: rng, stats, timestamps, relations, bytes, cli,
// table.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "util/bytes.hpp"
#include "util/cli.hpp"
#include "util/relation.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timestamp.hpp"

namespace mocc::util {
namespace {

// ------------------------------------------------------------------ Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliRoughlyUnbiased) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.next_bool(0.5) ? 1 : 0;
  EXPECT_NEAR(heads, 5000, 300);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(17);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.next_exponential(10.0);
  EXPECT_NEAR(total / n, 10.0, 0.5);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Zipf, UniformWhenExponentZero) {
  Rng rng(3);
  ZipfGenerator zipf(10, 0.0);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 10000; ++i) ++counts[zipf.next(rng)];
  for (const auto& [k, c] : counts) {
    EXPECT_LT(k, 10u);
    EXPECT_NEAR(c, 1000, 200);
  }
}

TEST(Zipf, SkewFavorsSmallRanks) {
  Rng rng(3);
  ZipfGenerator zipf(100, 1.0);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[zipf.next(rng)];
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(Zipf, SingleElementAlwaysZero) {
  Rng rng(1);
  ZipfGenerator zipf(1, 1.2);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(zipf.next(rng), 0u);
}

TEST(RandomPermutation, IsPermutation) {
  Rng rng(31);
  const auto perm = random_permutation(20, rng);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 20u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 19u);
}

// ---------------------------------------------------------------- stats

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(Summary, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
}

TEST(Summary, MergeCombinesSamples) {
  Summary a;
  Summary b;
  a.add(1);
  b.add(3);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Summary, SingleSample) {
  Summary s;
  s.add(42);
  EXPECT_DOUBLE_EQ(s.percentile(37), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, BriefMentionsCount) {
  Summary s;
  s.add(1);
  EXPECT_NE(s.brief().find("n=1"), std::string::npos);
}

TEST(Histogram, CountsAndOverflow) {
  Histogram h(0, 10, 5);
  h.add(-1);
  h.add(0);
  h.add(1.9);
  h.add(5);
  h.add(10);
  h.add(100);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.bucket(0), 2u);  // 0 and 1.9
  EXPECT_EQ(h.bucket(2), 1u);  // 5
}

TEST(Histogram, RenderIncludesBars) {
  Histogram h(0, 4, 2);
  h.add(1);
  h.add(1);
  h.add(3);
  const std::string render = h.render(10);
  EXPECT_NE(render.find("#"), std::string::npos);
}

// ----------------------------------------------------------- timestamps

TEST(VersionVector, IncrementAndIndex) {
  VersionVector ts(3);
  ts.increment(1);
  ts.increment(1);
  ts.increment(2);
  EXPECT_EQ(ts[0], 0u);
  EXPECT_EQ(ts[1], 2u);
  EXPECT_EQ(ts[2], 1u);
}

TEST(VersionVector, PointwiseOrders) {
  VersionVector a(2);
  VersionVector b(2);
  b.increment(0);
  EXPECT_TRUE(a.pointwise_leq(b));
  EXPECT_TRUE(a.pointwise_less(b));
  EXPECT_FALSE(b.pointwise_leq(a));
  EXPECT_TRUE(a.pointwise_leq(a));
  EXPECT_FALSE(a.pointwise_less(a));
}

TEST(VersionVector, IncomparableVectors) {
  VersionVector a(2);
  VersionVector b(2);
  a.increment(0);
  b.increment(1);
  EXPECT_FALSE(a.pointwise_leq(b));
  EXPECT_FALSE(b.pointwise_leq(a));
  EXPECT_FALSE(a.comparable(b));
}

TEST(VersionVector, LexCompare) {
  VersionVector a(2);
  VersionVector b(2);
  a.increment(0);
  b.increment(1);
  EXPECT_EQ(a.lex_compare(b), 1);   // (1,0) > (0,1)
  EXPECT_EQ(b.lex_compare(a), -1);
  EXPECT_EQ(a.lex_compare(a), 0);
}

TEST(VersionVector, MergeMaxIsJoin) {
  VersionVector a(2);
  VersionVector b(2);
  a.increment(0);
  b.increment(1);
  a.merge_max(b);
  EXPECT_EQ(a[0], 1u);
  EXPECT_EQ(a[1], 1u);
}

TEST(VersionVector, FromEntriesRoundTrip) {
  const auto ts = VersionVector::from_entries({3, 0, 7});
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0], 3u);
  EXPECT_EQ(ts[2], 7u);
}

// ------------------------------------------------------------ relations

TEST(BitRelation, AddHas) {
  BitRelation r(70);  // cross the 64-bit word boundary
  r.add(0, 69);
  r.add(69, 1);
  EXPECT_TRUE(r.has(0, 69));
  EXPECT_TRUE(r.has(69, 1));
  EXPECT_FALSE(r.has(1, 69));
  EXPECT_EQ(r.pair_count(), 2u);
}

TEST(BitRelation, TransitiveClosure) {
  BitRelation r(4);
  r.add(0, 1);
  r.add(1, 2);
  r.add(2, 3);
  const auto closed = r.transitive_closure();
  EXPECT_TRUE(closed.has(0, 3));
  EXPECT_TRUE(closed.has(0, 2));
  EXPECT_FALSE(closed.has(3, 0));
}

TEST(BitRelation, AcyclicityDetection) {
  BitRelation r(3);
  r.add(0, 1);
  r.add(1, 2);
  EXPECT_TRUE(r.is_acyclic());
  r.add(2, 0);
  EXPECT_FALSE(r.is_acyclic());
}

TEST(BitRelation, SelfLoopIsCycle) {
  BitRelation r(2);
  r.add(1, 1);
  EXPECT_FALSE(r.is_acyclic());
}

TEST(BitRelation, TopologicalOrderRespectsEdges) {
  BitRelation r(5);
  r.add(3, 1);
  r.add(1, 4);
  r.add(0, 2);
  const auto order = r.topological_order();
  ASSERT_TRUE(order.has_value());
  std::map<std::size_t, std::size_t> pos;
  for (std::size_t i = 0; i < order->size(); ++i) pos[(*order)[i]] = i;
  EXPECT_LT(pos[3], pos[1]);
  EXPECT_LT(pos[1], pos[4]);
  EXPECT_LT(pos[0], pos[2]);
}

TEST(BitRelation, TopologicalOrderNulloptOnCycle) {
  BitRelation r(3);
  r.add(0, 1);
  r.add(1, 0);
  EXPECT_FALSE(r.topological_order().has_value());
}

TEST(BitRelation, TotalOrderCheck) {
  BitRelation r(3);
  r.add(0, 1);
  r.add(1, 2);
  EXPECT_FALSE(r.closed_is_total_order());  // (0,2) missing before closure
  const auto closed = r.transitive_closure();
  EXPECT_TRUE(closed.closed_is_total_order());
}

TEST(BitRelation, MergeUnions) {
  BitRelation a(3);
  BitRelation b(3);
  a.add(0, 1);
  b.add(1, 2);
  a.merge(b);
  EXPECT_TRUE(a.has(0, 1));
  EXPECT_TRUE(a.has(1, 2));
}

TEST(BitRelation, SuccessorsPredecessorsDegrees) {
  BitRelation r(4);
  r.add(0, 2);
  r.add(1, 2);
  r.add(2, 3);
  EXPECT_EQ(r.successors(2), (std::vector<std::size_t>{3}));
  EXPECT_EQ(r.predecessors(2), (std::vector<std::size_t>{0, 1}));
  const auto indeg = r.in_degrees();
  EXPECT_EQ(indeg[2], 2u);
  EXPECT_EQ(indeg[0], 0u);
}

TEST(BitRelation, EmptyUniverse) {
  BitRelation r(0);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.pair_count(), 0u);
  EXPECT_TRUE(r.is_acyclic());
  EXPECT_TRUE(r.closed_is_total_order());  // vacuously
  const auto order = r.topological_order();
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(order->empty());
  EXPECT_TRUE(r.in_degrees().empty());
  BitRelation other(0);
  r.merge(other);  // merging empty universes is a no-op, not a crash
  EXPECT_EQ(r.pair_count(), 0u);
  const auto closed = r.transitive_closure();
  EXPECT_EQ(closed.size(), 0u);
}

TEST(BitRelation, SelfLoopCycleDetectedBeyondFirstWord) {
  // The self-loop bit sits in the second 64-bit word of its row.
  BitRelation r(130);
  r.add(100, 100);
  EXPECT_FALSE(r.is_acyclic());
  EXPECT_FALSE(r.topological_order().has_value());
}

TEST(BitRelation, TransitiveClosureOnAlreadyClosedInputIsIdempotent) {
  BitRelation r(6);
  r.add(0, 1);
  r.add(1, 2);
  r.add(3, 4);
  const auto once = r.transitive_closure();
  const auto twice = once.transitive_closure();
  ASSERT_EQ(once.size(), twice.size());
  EXPECT_EQ(once.pair_count(), twice.pair_count());
  for (std::size_t i = 0; i < once.size(); ++i) {
    for (std::size_t j = 0; j < once.size(); ++j) {
      EXPECT_EQ(once.has(i, j), twice.has(i, j)) << i << "," << j;
    }
  }
}

TEST(BitRelation, LargeUniverseChainAcrossWordBoundary) {
  // A 130-element chain spans three 64-bit words per row; the closure
  // must carry bits across all word boundaries.
  constexpr std::size_t kN = 130;
  BitRelation r(kN);
  for (std::size_t i = 0; i + 1 < kN; ++i) r.add(i, i + 1);
  const auto closed = r.transitive_closure();
  EXPECT_TRUE(closed.has(0, kN - 1));
  EXPECT_TRUE(closed.has(63, 64));
  EXPECT_TRUE(closed.has(0, 127));
  EXPECT_FALSE(closed.has(kN - 1, 0));
  // i < j ordered for all pairs: n*(n-1)/2 pairs, and a total order.
  EXPECT_EQ(closed.pair_count(), kN * (kN - 1) / 2);
  EXPECT_TRUE(closed.closed_is_total_order());
  const auto order = r.topological_order();
  ASSERT_TRUE(order.has_value());
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ((*order)[i], i);
}

#if GTEST_HAS_DEATH_TEST
TEST(BitRelationDeath, AddOutOfRangeAborts) {
  BitRelation r(4);
  EXPECT_DEATH(r.add(4, 0), "outside the universe");
  EXPECT_DEATH(r.add(0, 4), "outside the universe");
}

TEST(BitRelationDeath, HasOutOfRangeAborts) {
  const BitRelation r(4);
  EXPECT_DEATH((void)r.has(0, 7), "outside the universe");
}

TEST(BitRelationDeath, MergeMismatchedUniversesAborts) {
  BitRelation a(4);
  const BitRelation b(5);
  EXPECT_DEATH(a.merge(b), "universe sizes disagree");
}

TEST(BitRelationDeath, SuccessorsPredecessorsOutOfRangeAbort) {
  const BitRelation r(3);
  EXPECT_DEATH((void)r.successors(3), "outside the universe");
  EXPECT_DEATH((void)r.predecessors(9), "outside the universe");
}
#endif  // GTEST_HAS_DEATH_TEST

// ---------------------------------------------------------------- bytes

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.put_u8(7);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_i64(-42);
  w.put_string("hello");
  const std::vector<std::uint8_t> expected{
      0x07,                                            // u8
      0xEF, 0xBE, 0xAD, 0xDE,                          // u32
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64
      0xD6, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // i64 -42
      0x05, 0x00, 0x00, 0x00, 'h', 'e', 'l', 'l', 'o'};  // string
  EXPECT_EQ(w.bytes(), expected);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, RoundTripVectors) {
  ByteWriter w;
  w.put_u64_vector({1, 2, 3});
  w.put_i64_vector({-1, 0, 1});
  w.put_u32_vector({});
  const std::vector<std::uint8_t> expected{
      0x03, 0x00, 0x00, 0x00,                          // u64 count
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x03, 0x00, 0x00, 0x00,                          // i64 count
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x00, 0x00, 0x00, 0x00};                         // empty u32 vector
  EXPECT_EQ(w.bytes(), expected);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u64_vector(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.get_i64_vector(), (std::vector<std::int64_t>{-1, 0, 1}));
  EXPECT_TRUE(r.get_u32_vector().empty());
}

TEST(Bytes, EmptyString) {
  ByteWriter w;
  w.put_string("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "");
}

TEST(Bytes, PutBytesWritesPutStringsWireForm) {
  const std::vector<std::uint8_t> payload{0x00, 0x7F, 0x80, 0xFF, 'x'};
  ByteWriter as_bytes;
  as_bytes.put_bytes(payload);
  as_bytes.put_bytes({});
  ByteWriter as_string;
  as_string.put_string(std::string(payload.begin(), payload.end()));
  as_string.put_string("");
  EXPECT_EQ(as_bytes.bytes(), as_string.bytes());

  // Either reader takes either writer's form.
  ByteReader r(as_string.bytes());
  EXPECT_EQ(r.get_bytes(), payload);
  EXPECT_TRUE(r.get_bytes().empty());
  EXPECT_TRUE(r.exhausted());
  ByteReader s(as_bytes.bytes());
  EXPECT_EQ(s.get_string(), std::string(payload.begin(), payload.end()));
}

#if GTEST_HAS_DEATH_TEST
// A corrupt length prefix must fail the bounds check before anything is
// reserved for it: 0xFFFFFFFF u64s would otherwise ask for 32 GiB.
TEST(BytesDeath, LengthPrefixBeyondTheBufferAborts) {
  ByteWriter w;
  w.put_u32(0xFFFFFFFFu);
  w.put_u64(1);
  const std::vector<std::uint8_t> corrupt = w.bytes();
  EXPECT_DEATH((void)ByteReader(corrupt).get_u64_vector(), "message underflow");
  EXPECT_DEATH((void)ByteReader(corrupt).get_i64_vector(), "message underflow");
  EXPECT_DEATH((void)ByteReader(corrupt).get_u32_vector(), "message underflow");
  EXPECT_DEATH((void)ByteReader(corrupt).get_bytes(), "message underflow");
  EXPECT_DEATH((void)ByteReader(corrupt).get_string(), "message underflow");
}
#endif  // GTEST_HAS_DEATH_TEST

// ------------------------------------------------------------------ cli

TEST(Cli, ParsesEqualsAndSpaceForms) {
  // Note: a bare boolean flag directly before a positional would be
  // ambiguous (`--flag pos1` reads as --flag=pos1); positionals come
  // first or booleans use --flag=true.
  const char* argv[] = {"prog", "--n=5", "--name", "alice", "pos1", "--flag"};
  CliArgs args(6, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("n", 0), 5);
  EXPECT_EQ(args.get_string("name", ""), "alice");
  EXPECT_TRUE(args.get_bool("flag", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, Fallbacks) {
  const char* argv[] = {"prog"};
  CliArgs args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, UnusedDetection) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  CliArgs args(3, const_cast<char**>(argv));
  (void)args.get_int("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| longer"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(static_cast<std::uint64_t>(7)), "7");
  EXPECT_EQ(Table::num(static_cast<std::int64_t>(-7)), "-7");
}

}  // namespace
}  // namespace mocc::util
