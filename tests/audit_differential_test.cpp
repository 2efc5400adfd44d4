// Differential suite for the linear P5.x audit: core::sparse_audit
// against the dense oracle core::audit_protocol_execution, each over the
// ~>H− of the protocol's figure (Figure 4 for mseq, Figure 6 for the
// m-linearizable protocols). The corpus: clean executions of mseq, mlin,
// mlin-narrow and mlin-bcastq over both broadcasts, mseq seq-swap and
// skip-delivery mutants, and every one of those with its timestamps
// bumped or swapped and its ranks swapped or reversed. The two audits
// must agree on `ok`, and every property the linear audit names must be
// named by the dense audit too. Hand-built histories add the P5.1 edges
// no protocol produces. Ranks stay distinct throughout: a tie is the one
// documented difference, pinned by its own test.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "api/system.hpp"
#include "core/audit.hpp"
#include "core/relations.hpp"
#include "util/rng.hpp"
#include "util/timestamp.hpp"

namespace mocc::core {
namespace {

/// What both audits read of one execution.
struct Execution {
  History history;
  Condition condition;
  WwRanks ranks;
  std::vector<util::VersionVector> timestamps;
};

Execution run(const std::string& protocol, const std::string& broadcast, std::uint64_t seed,
              const std::string& mutation, std::size_t objects, std::size_t ops) {
  api::SystemConfig config;
  config.num_processes = 3;
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
  const TimestampView recorded = system.recorder().timestamps();
  std::vector<util::VersionVector> timestamps;
  for (MOpId id = 0; id < recorded.size(); ++id) timestamps.push_back(recorded[id]);
  return {system.history(), api::claimed_condition(protocol), system.recorder().ww_ranks(),
          std::move(timestamps)};
}

/// The dense oracle's trace of `e`, from its (possibly corrupted) ranks
/// and timestamps.
ProtocolTrace oracle_trace(const Execution& e) {
  return protocol_trace(e.history, e.condition, e.ranks, e.timestamps);
}

/// "P5.3: m1 ~> m2 ..." names P5.3; a violation without a colon is its
/// own label.
std::string label(const std::string& violation) {
  return violation.substr(0, violation.find(':'));
}

struct Tally {
  std::size_t checks = 0;
  std::size_t rejected = 0;
};

void expect_agreement(const Execution& e, const std::string& what, Tally& tally) {
  const AuditReport dense = audit_protocol_execution(e.history, oracle_trace(e));
  const AuditReport sparse = sparse_audit(e.history, e.condition, e.ranks, e.timestamps);
  ++tally.checks;
  if (!dense.ok) ++tally.rejected;
  EXPECT_EQ(sparse.ok, dense.ok) << what << "\ndense " << dense.to_string() << "linear "
                                 << sparse.to_string();
  std::set<std::string> dense_labels;
  for (const std::string& v : dense.violations) dense_labels.insert(label(v));
  for (const std::string& v : sparse.violations) {
    EXPECT_TRUE(dense_labels.count(label(v)) > 0)
        << what << ": the linear audit reports\n  " << v << "\nbut the dense audit only\n"
        << dense.to_string();
  }
}

std::vector<MOpId> ranked_ids(const WwRanks& ranks) {
  std::vector<MOpId> ids;
  for (MOpId id = 0; id < ranks.size(); ++id) {
    if (ranks[id].has_value()) ids.push_back(id);
  }
  return ids;
}

/// Each execution, then 20 timestamp bumps, 20 timestamp swaps, 10 rank
/// swaps and one full rank reversal of it: 52 checks.
void expect_agreement_under_corruption(const Execution& clean, const std::string& what,
                                       util::Rng& rng, Tally& tally) {
  expect_agreement(clean, what, tally);
  const std::size_t n = clean.history.size();
  const std::size_t objects = clean.history.num_objects();
  for (int i = 0; i < 20; ++i) {
    Execution e = clean;
    const auto id = static_cast<MOpId>(rng.next_below(n));
    std::vector<std::uint64_t> entries = e.timestamps[id].entries();
    std::uint64_t& entry = entries[rng.next_below(objects)];
    entry = entry > 0 && rng.next_bool(0.5) ? entry - 1 : entry + 1;
    e.timestamps[id] = util::VersionVector::from_entries(std::move(entries));
    expect_agreement(e, what + ", ts(m" + std::to_string(id) + ") bumped", tally);
  }
  for (int i = 0; i < 20; ++i) {
    Execution e = clean;
    const auto a = static_cast<MOpId>(rng.next_below(n));
    const auto b = static_cast<MOpId>(rng.next_below(n));
    std::swap(e.timestamps[a], e.timestamps[b]);
    expect_agreement(e, what + ", ts(m" + std::to_string(a) + ") <-> ts(m" +
                            std::to_string(b) + ")", tally);
  }
  const std::vector<MOpId> ranked = ranked_ids(clean.ranks);
  ASSERT_GE(ranked.size(), 2u) << what;
  for (int i = 0; i < 10; ++i) {
    Execution e = clean;
    const MOpId a = ranked[rng.next_below(ranked.size())];
    const MOpId b = ranked[rng.next_below(ranked.size())];
    std::swap(e.ranks[a], e.ranks[b]);
    expect_agreement(e, what + ", ranks of m" + std::to_string(a) + " and m" +
                            std::to_string(b) + " swapped", tally);
  }
  Execution reversed = clean;
  for (const MOpId id : ranked) reversed.ranks[id] = ~std::uint64_t{0} - *clean.ranks[id];
  expect_agreement(reversed, what + ", ranks reversed", tally);
}

TEST(AuditDifferential, ProtocolExecutionsAndTheirCorruptions) {
  util::Rng rng(1998);
  Tally tally;
  for (const char* protocol : {"mseq", "mlin", "mlin-narrow", "mlin-bcastq"}) {
    for (const char* broadcast : {"sequencer", "isis"}) {
      for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        const std::string what = std::string(protocol) + "/" + broadcast + " seed " +
                                 std::to_string(seed);
        const Execution clean = run(protocol, broadcast, seed, "", 3, 8);
        ASSERT_TRUE(sparse_audit(clean.history, clean.condition, clean.ranks,
                                 clean.timestamps)
                        .ok)
            << what;
        expect_agreement_under_corruption(clean, what, rng, tally);
      }
    }
  }
  struct Mutant {
    const char* broadcast;
    const char* mutation;
  };
  for (const Mutant m : {Mutant{"sequencer", "seq-swap"}, Mutant{"sequencer", "skip-delivery"},
                         Mutant{"isis", "skip-delivery"}}) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      expect_agreement_under_corruption(
          run("mseq", m.broadcast, seed, m.mutation, 2, 10),
          std::string("mseq/") + m.broadcast + "/" + m.mutation + " seed " +
              std::to_string(seed),
          rng, tally);
    }
  }
  RecordProperty("checks", static_cast<int>(tally.checks));
  RecordProperty("rejected", static_cast<int>(tally.rejected));
  EXPECT_EQ(tally.checks, 14'300u);
  // Most corruptions must be caught, or agreement proves little.
  EXPECT_GT(tally.rejected, tally.checks / 2);
}

bool names(const AuditReport& report, const std::string& property) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&property](const std::string& v) { return label(v) == property; });
}

// P5.1 on the edges the protocols never produce, so the corpus above
// cannot reach them: two queries of one process with no tick between
// them, ordered by process order alone (Figure 4), and a read from an
// unranked writer that overlaps it (either figure).
TEST(AuditDifferential, QueriesOrderedWithoutRealTimePrecedence) {
  Tally tally;
  History same_tick(1, 1);
  same_tick.add(MOperation(0, {Operation::read(0, 0, kInitialMOp)}, 1, 5));
  const MOpId update = same_tick.add(MOperation(0, {Operation::write(0, 1)}, 5, 5));
  same_tick.add(MOperation(0, {Operation::read(0, 1, update)}, 5, 9));
  const Execution by_process{same_tick, Condition::kMSequentialConsistency,
                             WwRanks{std::nullopt, 0, std::nullopt},
                             {util::VersionVector(1), util::VersionVector::from_entries({1}),
                              util::VersionVector::from_entries({1})}};
  expect_agreement(by_process, "queries one tick apart", tally);
  const AuditReport same_tick_report = sparse_audit(by_process.history, by_process.condition,
                                                    by_process.ranks, by_process.timestamps);
  EXPECT_EQ(same_tick_report.violations,
            std::vector<std::string>{
                "P5.1: queries m0 ~> m2 ordered without real-time precedence"});

  History overlapping(2, 1);
  const MOpId writer = overlapping.add(MOperation(0, {Operation::write(0, 1)}, 1, 10));
  overlapping.add(MOperation(1, {Operation::read(0, 1, writer)}, 2, 9));
  for (const Condition condition :
       {Condition::kMSequentialConsistency, Condition::kMLinearizability}) {
    const Execution unranked{overlapping, condition, WwRanks(2),
                             {util::VersionVector::from_entries({1}),
                              util::VersionVector::from_entries({1})}};
    expect_agreement(unranked, "read from an unranked writer", tally);
    EXPECT_TRUE(names(sparse_audit(unranked.history, condition, unranked.ranks,
                                   unranked.timestamps),
                      "P5.1"));
  }
  EXPECT_EQ(tally.rejected, tally.checks);
}

// Tied ranks: the dense oracle's ~ww orders them by id and stays silent
// when the timestamps follow that order; the linear audit names the pair.
TEST(AuditDifferential, TiedRanksAreNamedOnlyByTheLinearAudit) {
  History h(2, 2);
  h.add(MOperation(0, {Operation::write(0, 1)}, 1, 10));
  h.add(MOperation(1, {Operation::write(1, 2)}, 2, 9));
  const Execution e{h, Condition::kMLinearizability, WwRanks{4, 4},
                    {util::VersionVector::from_entries({1, 0}),
                     util::VersionVector::from_entries({1, 1})}};
  EXPECT_TRUE(audit_protocol_execution(e.history, oracle_trace(e)).ok);
  const AuditReport sparse = sparse_audit(e.history, e.condition, e.ranks, e.timestamps);
  EXPECT_FALSE(sparse.ok);
  EXPECT_EQ(sparse.violations,
            std::vector<std::string>{"P5.2: updates m0, m1 unordered: both hold ww rank 4"});
}

}  // namespace
}  // namespace mocc::core
