// mocc-check edge and contract tests: budget exhaustion, depth
// truncation, determinism of the exploration itself, naive-vs-reduced
// verdict agreement, mutation catching with counterexample round-trips,
// replay-divergence detection, masked-hash collision handling, the
// value-coherence check behind the skip-delivery catch, and the
// controlled-mode attachment preconditions.
#include <gtest/gtest.h>

#include <string>

#include "api/system.hpp"
#include "check/explore.hpp"
#include "check/replay.hpp"
#include "core/history.hpp"
#include "sim/simulator.hpp"

namespace mocc::check {
namespace {

bool same_stats(const ExploreStats& a, const ExploreStats& b) {
  return a.runs_total == b.runs_total &&
         a.schedules_checked == b.schedules_checked &&
         a.sleep_pruned == b.sleep_pruned && a.hash_pruned == b.hash_pruned &&
         a.choice_points == b.choice_points &&
         a.max_depth_seen == b.max_depth_seen &&
         a.depth_truncations == b.depth_truncations &&
         a.distinct_states == b.distinct_states &&
         a.hash_collisions == b.hash_collisions &&
         a.audit_only_violations == b.audit_only_violations;
}

// --- budgets ----------------------------------------------------------

TEST(ExploreBudgetTest, ScheduleBudgetExhaustionReportsIncomplete) {
  ExploreConfig config;
  config.protocol = "mseq";
  config.num_processes = 3;
  config.max_schedules = 5;
  const ExploreResult result = explore(config);
  EXPECT_FALSE(result.complete);
  EXPECT_FALSE(result.violation.has_value());
  EXPECT_EQ(result.stats.runs_total, 5u);
}

TEST(ExploreBudgetTest, DepthBudgetTruncatesWithoutViolations) {
  ExploreConfig config;
  config.protocol = "mseq";
  config.max_depth = 2;
  const ExploreResult result = explore(config);
  EXPECT_FALSE(result.complete);
  EXPECT_FALSE(result.violation.has_value());
  EXPECT_GT(result.stats.depth_truncations, 0u);
  // The truncating choice point itself is counted before the cut.
  EXPECT_LE(result.stats.max_depth_seen, 3u);
}

// --- determinism and reduction soundness ------------------------------

TEST(ExploreTest, ExplorationIsDeterministic) {
  ExploreConfig config;
  config.protocol = "mlin";
  const ExploreResult first = explore(config);
  const ExploreResult second = explore(config);
  EXPECT_EQ(first.complete, second.complete);
  EXPECT_EQ(first.violation.has_value(), second.violation.has_value());
  EXPECT_TRUE(same_stats(first.stats, second.stats));
}

/// The batched small scopes explore clean: sequencer group-commit and
/// mlin query rounds preserve admissibility on EVERY delivery
/// interleaving, not just the sampled ones. Batched counterexample
/// configs must also survive the replay-file round-trip so a violating
/// schedule found under batching stays reproducible.
TEST(ExploreTest, BatchedConfigsExploreCleanOnEverySchedule) {
  for (const char* protocol : {"mseq", "mlin"}) {
    ExploreConfig config;
    config.protocol = protocol;
    config.batching = true;
    const ExploreResult result = explore(config);
    EXPECT_TRUE(result.complete) << protocol;
    EXPECT_FALSE(result.violation.has_value()) << protocol;
    EXPECT_GT(result.stats.schedules_checked, 0u) << protocol;
  }
}

TEST(ExploreTest, BatchingFlagRoundTripsThroughTheReplayFile) {
  Counterexample original;
  original.config.protocol = "mseq";
  original.config.batching = true;
  original.reason = "synthetic";
  const std::string text = format_counterexample(original);
  EXPECT_NE(text.find("batching 1"), std::string::npos);
  Counterexample parsed;
  std::string error;
  ASSERT_TRUE(parse_counterexample(text, parsed, error)) << error;
  EXPECT_TRUE(parsed.config.batching);
  // Unbatched files carry no batching line at all — byte-compatible
  // with v1 readers — and parse back to the off default.
  original.config.batching = false;
  const std::string unbatched = format_counterexample(original);
  EXPECT_EQ(unbatched.find("batching"), std::string::npos);
  ASSERT_TRUE(parse_counterexample(unbatched, parsed, error)) << error;
  EXPECT_FALSE(parsed.config.batching);
}

// Files written while mocc-check still had an exact-search budget carry
// an `exact-budget` line: it still parses, and changes nothing.
TEST(ExploreTest, ReplayFilesWithAnExactBudgetLineStillLoad) {
  Counterexample original;
  original.config.protocol = "locking";
  original.reason = "synthetic";
  std::string text = format_counterexample(original);
  EXPECT_EQ(text.find("exact-budget"), std::string::npos);
  text.insert(text.find("reason "), "exact-budget 2000000\n");
  Counterexample parsed;
  std::string error;
  ASSERT_TRUE(parse_counterexample(text, parsed, error)) << error;
  EXPECT_EQ(format_counterexample(parsed), format_counterexample(original));
}

TEST(ExploreTest, NaiveAndReducedExplorationAgreeOnTheVerdict) {
  for (const char* protocol : {"mseq", "locking"}) {
    ExploreConfig reduced;
    reduced.protocol = protocol;
    ExploreConfig naive = reduced;
    naive.use_sleep_sets = false;
    naive.use_state_hash = false;
    const ExploreResult r = explore(reduced);
    const ExploreResult n = explore(naive);
    EXPECT_TRUE(r.complete) << protocol;
    EXPECT_TRUE(n.complete) << protocol;
    EXPECT_EQ(r.violation.has_value(), n.violation.has_value()) << protocol;
    // Reduction only removes redundant schedules.
    EXPECT_LE(r.stats.schedules_checked, n.stats.schedules_checked) << protocol;
    EXPECT_GT(n.stats.schedules_checked, 0u) << protocol;
  }
}

TEST(ExploreTest, MaskedHashDetectsCollisionsWithoutChangingTheVerdict) {
  ExploreConfig full;
  full.protocol = "mseq";
  full.ops_per_process = 3;
  full.use_sleep_sets = false;  // hash pruning only, so the mask matters
  ExploreConfig masked = full;
  masked.hash_bits = 4;
  const ExploreResult f = explore(full);
  const ExploreResult m = explore(masked);
  EXPECT_TRUE(f.complete);
  EXPECT_TRUE(m.complete);
  EXPECT_FALSE(m.violation.has_value());
  EXPECT_GT(m.stats.hash_collisions, 0u);
  // The secondary full-width chain keeps masked pruning sound: the same
  // set of distinct states is interned either way.
  EXPECT_EQ(f.stats.distinct_states, m.stats.distinct_states);
  EXPECT_EQ(f.stats.schedules_checked, m.stats.schedules_checked);
}

// --- mutations and replay ---------------------------------------------

ExploreConfig skip_delivery_config() {
  ExploreConfig config;
  config.protocol = "mlin";
  config.mutation = "skip-delivery";
  config.num_objects = 1;  // see tools/mocc_check selftest: one object
                           // forces the victim's next update to read the
                           // lost write's object
  return config;
}

TEST(MutationTest, SkipDeliveryYieldsAHistoryLevelCounterexample) {
  const ExploreResult result = explore(skip_delivery_config());
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_NE(result.violation->reason.find("value-coherent"), std::string::npos);

  const std::string text = format_counterexample(*result.violation);
  Counterexample parsed;
  std::string error;
  ASSERT_TRUE(parse_counterexample(text, parsed, error)) << error;
  EXPECT_EQ(parsed.config.protocol, "mlin");
  EXPECT_EQ(parsed.config.mutation, "skip-delivery");
  EXPECT_EQ(parsed.choices.size(), result.violation->choices.size());

  const ReplayResult replayed = replay(parsed);
  EXPECT_TRUE(replayed.faithful) << replayed.divergence;
  EXPECT_EQ(replayed.violation, result.violation->reason);
  EXPECT_TRUE(replayed.history_level);
}

TEST(MutationTest, ReplayDetectsTamperedChoiceFiles) {
  const ExploreResult result = explore(skip_delivery_config());
  ASSERT_TRUE(result.violation.has_value());
  ASSERT_FALSE(result.violation->choices.empty());

  // Flip the recorded payload signature of the first choice: replay must
  // refuse to follow it and name the divergent step.
  Counterexample tampered = *result.violation;
  tampered.choices.front().payload_hash ^= 1;
  const ReplayResult replayed = replay(tampered);
  EXPECT_FALSE(replayed.faithful);
  EXPECT_NE(replayed.divergence.find("diverged at step 0"), std::string::npos)
      << replayed.divergence;

  // Truncating the sequence leaves the run unfinished relative to the
  // file's claim of quiescence-at-the-end.
  Counterexample truncated = *result.violation;
  truncated.choices.pop_back();
  const ReplayResult incomplete = replay(truncated);
  EXPECT_FALSE(incomplete.faithful);
}

TEST(MutationTest, ParserRejectsMalformedFiles) {
  const ExploreResult result = explore(skip_delivery_config());
  ASSERT_TRUE(result.violation.has_value());
  const std::string good = format_counterexample(*result.violation);

  Counterexample out;
  std::string error;
  std::string bad = good;
  bad.replace(0, bad.find('\n'), "mocc-check-replay v999");
  EXPECT_FALSE(parse_counterexample(bad, out, error));
  EXPECT_NE(error.find("unsupported replay file"), std::string::npos) << error;

  // Declared choice count disagreeing with the actual lines.
  const std::size_t choices_pos = good.find("choices ");
  ASSERT_NE(choices_pos, std::string::npos);
  std::string miscounted = good;
  miscounted.insert(choices_pos + 8, "9");
  EXPECT_FALSE(parse_counterexample(miscounted, out, error));
}

// --- value coherence (the history-level check behind skip-delivery) ---

core::MOperation coherent_writer() {
  return core::MOperation(0, {core::Operation::write(0, 7)}, 1, 2);
}

TEST(ValueCoherenceTest, AcceptsMatchingAndFlagsDivergentReads) {
  core::History good(2, 1);
  good.add(coherent_writer());
  good.add(core::MOperation(1, {core::Operation::read(0, 7, 0)}, 3, 4));
  EXPECT_TRUE(good.value_coherent());

  core::History stale(2, 1);
  stale.add(coherent_writer());
  stale.add(core::MOperation(1, {core::Operation::read(0, 6, 0)}, 3, 4));
  std::string why;
  EXPECT_FALSE(stale.value_coherent(&why));
  EXPECT_NE(why.find("final write stores 7"), std::string::npos) << why;

  core::History initial(1, 1);
  initial.add(core::MOperation(
      0, {core::Operation::read(0, 5, core::kInitialMOp)}, 1, 2));
  EXPECT_FALSE(initial.value_coherent(&why));
  EXPECT_NE(why.find("initial"), std::string::npos) << why;
}

// --- controlled-mode preconditions ------------------------------------

class NoopController final : public sim::ScheduleController {
 public:
  std::size_t choose(const std::vector<sim::ScheduleController::Choice>&) override {
    return 0;
  }
};

TEST(ControlledModeDeathTest, ControllerMustAttachBeforeTheFirstRun) {
  api::SystemConfig config;
  config.protocol = "mseq";
  config.num_processes = 2;
  config.num_objects = 1;
  api::System system(config);
  system.run(1);
  NoopController controller;
  EXPECT_DEATH(system.set_schedule_controller(&controller),
               "before the first run");
}

}  // namespace
}  // namespace mocc::check
