// Cross-cutting property tests: the condition hierarchy, parser
// robustness, equivalence-relation laws, and high-contention protocol
// stress (deadlock/livelock freedom).
#include <gtest/gtest.h>

#include <string>

#include "api/system.hpp"
#include "core/admissibility.hpp"
#include "core/generate.hpp"
#include "core/serialize.hpp"
#include "mscript/library.hpp"
#include "protocols/workload.hpp"
#include "util/rng.hpp"

namespace mocc {
namespace {

// ------------------------------------------------- condition hierarchy

class ConditionHierarchy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConditionHierarchy, MLinImpliesMNormalImpliesMSC) {
  // The base orders nest (rf∪P ⊆ rf∪P∪xo ⊆ rf∪P∪t), so admissibility is
  // antitone: on ANY history, m-lin admissible ⇒ m-normal admissible ⇒
  // m-SC admissible. Exercise with free (often inadmissible) histories.
  util::Rng rng(GetParam() * 6151 + 1);
  core::GeneratorParams params;
  params.num_mops = 10;
  params.num_processes = 3;
  params.num_objects = 2;
  params.write_probability = 0.6;
  for (int trial = 0; trial < 10; ++trial) {
    const auto h = core::generate_free_history(params, rng);
    const bool mlin = core::check_m_linearizable(h).admissible;
    const bool mnorm = core::check_m_normal(h).admissible;
    const bool msc = core::check_m_sequentially_consistent(h).admissible;
    if (mlin) {
      EXPECT_TRUE(mnorm) << "m-lin without m-normality";
    }
    if (mnorm) {
      EXPECT_TRUE(msc) << "m-normality without m-SC";
    }
  }
}

TEST_P(ConditionHierarchy, WitnessesReplayUnderTheirOwnCondition) {
  util::Rng rng(GetParam() * 24593 + 5);
  core::GeneratorParams params;
  params.num_mops = 12;
  for (int trial = 0; trial < 5; ++trial) {
    const auto h = core::generate_admissible_history(params, rng);
    for (const auto condition :
         {core::Condition::kMSequentialConsistency, core::Condition::kMNormality,
          core::Condition::kMLinearizability}) {
      const auto result = core::check_condition(h, condition);
      ASSERT_TRUE(result.admissible);
      // The witness respects the condition's closed base order.
      const auto closed = core::closed_base_order(h, condition);
      std::vector<std::size_t> position(h.size());
      for (std::size_t i = 0; i < result.witness->size(); ++i) {
        position[(*result.witness)[i]] = i;
      }
      for (core::MOpId a = 0; a < h.size(); ++a) {
        for (core::MOpId b = 0; b < h.size(); ++b) {
          if (a != b && closed.has(a, b)) {
            EXPECT_LT(position[a], position[b]) << core::condition_name(condition);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConditionHierarchy, ::testing::Values(1, 2, 3, 4, 5, 6));

// ----------------------------------------------------- equivalence laws

TEST(EquivalenceLaws, ReflexiveSymmetric) {
  util::Rng rng(77);
  core::GeneratorParams params;
  params.num_mops = 10;
  const auto h = core::generate_admissible_history(params, rng);
  EXPECT_TRUE(h.equivalent(h));
  auto h2 = core::generate_admissible_history(params, rng);
  EXPECT_EQ(h.equivalent(h2), h2.equivalent(h));
}

TEST(EquivalenceLaws, SerializationPreservesEquivalenceClass) {
  util::Rng rng(78);
  core::GeneratorParams params;
  params.num_mops = 12;
  for (int trial = 0; trial < 5; ++trial) {
    const auto h = core::generate_admissible_history(params, rng);
    const auto round_tripped = core::parse_history(core::serialize_history(h), nullptr);
    ASSERT_TRUE(round_tripped.has_value());
    EXPECT_TRUE(h.equivalent(*round_tripped));
  }
}

// ------------------------------------------------------- parser fuzzing

TEST(ParserFuzz, GarbageNeverCrashes) {
  util::Rng rng(4099);
  const std::string alphabet = "history mop 0123456789 :()@wr#\n\t-";
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    const std::size_t length = rng.next_below(200);
    for (std::size_t i = 0; i < length; ++i) {
      text.push_back(alphabet[rng.next_below(alphabet.size())]);
    }
    std::string error;
    (void)core::parse_history(text, &error);  // must not crash/abort
  }
}

TEST(ParserFuzz, TruncatedValidHistoriesNeverCrash) {
  util::Rng rng(4101);
  core::GeneratorParams params;
  params.num_mops = 8;
  const auto h = core::generate_admissible_history(params, rng);
  const std::string full = core::serialize_history(h);
  for (std::size_t cut = 0; cut < full.size(); cut += 7) {
    std::string error;
    (void)core::parse_history(full.substr(0, cut), &error);
  }
}

// --------------------------------------------- high-contention protocols

class ContentionStress : public ::testing::TestWithParam<const char*> {};

TEST_P(ContentionStress, CompletesAndStaysConsistent) {
  // 6 processes hammering footprint-4 operations over only 4 objects:
  // every operation conflicts with every other. Completion proves
  // deadlock- and livelock-freedom; the checker proves consistency.
  api::SystemConfig config;
  config.protocol = GetParam();
  config.num_processes = 6;
  config.num_objects = 4;
  config.delay = "reorder";
  config.seed = 99;
  api::System system(config);
  protocols::WorkloadParams params;
  params.ops_per_process = 8;
  params.update_ratio = 0.7;
  params.footprint = 4;
  const auto report = system.run_workload(params);
  EXPECT_EQ(report.queries + report.updates, 48u);

  const auto claimed = api::claimed_condition(GetParam());
  core::AdmissibilityOptions options;
  options.max_states = 10'000'000;
  const auto exact = system.check_exact(claimed, options);
  ASSERT_TRUE(exact.completed);
  EXPECT_TRUE(exact.admissible);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ContentionStress,
                         ::testing::Values("mseq", "mlin", "mlin-narrow",
                                           "mlin-bcastq", "locking", "aggregate"));

// ------------------------------------- cross-protocol result agreement

TEST(CrossProtocol, DeterministicOutcomeAgreementOnSerialWorkload) {
  // A strictly serial workload (each op waits for the previous, driven
  // from one process) must produce identical return values under every
  // protocol: they all implement the same sequential semantics.
  auto run_with = [](const std::string& protocol) {
    api::SystemConfig config;
    config.protocol = protocol;
    config.num_processes = 3;
    config.num_objects = 4;
    config.seed = 7;
    api::System system(config);
    std::vector<std::int64_t> results;
    const std::vector<mscript::ObjectId> all{0, 1, 2, 3};
    const std::vector<mscript::Value> values{5, 6, 7, 8};
    system.submit(0, 1, mscript::lib::make_m_assign(all, values),
                  [&](const protocols::InvocationOutcome& out) {
                    results.push_back(out.return_value);
                  });
    system.submit(0, 2, mscript::lib::make_dcas(0, 1, 5, 6, 50, 60),
                  [&](const protocols::InvocationOutcome& out) {
                    results.push_back(out.return_value);
                  });
    system.submit(0, 3, mscript::lib::make_transfer(2, 3, 3),
                  [&](const protocols::InvocationOutcome& out) {
                    results.push_back(out.return_value);
                  });
    system.submit(0, 4, mscript::lib::make_sum(all),
                  [&](const protocols::InvocationOutcome& out) {
                    results.push_back(out.return_value);
                  });
    system.run();
    return results;
  };
  const auto reference = run_with("mlin");
  ASSERT_EQ(reference.size(), 4u);
  EXPECT_EQ(reference[3], 50 + 60 + 7 + 8);
  for (const char* protocol :
       {"mseq", "mlin-narrow", "mlin-bcastq", "locking", "aggregate"}) {
    EXPECT_EQ(run_with(protocol), reference) << protocol;
  }
}

}  // namespace
}  // namespace mocc
