// api::System's verdict cache: history(), check_fast and audit() share
// one History per completed run and one sparse pass for the claimed
// condition. Every answer must equal core::sparse_fast_check or
// core::sparse_audit computed from scratch on the same recorded run: on
// clean and mutated protocol runs, on a run continued after a verdict,
// and when check_fast ran for a condition other than the claimed one.
#include <gtest/gtest.h>

#include <string>

#include "api/system.hpp"
#include "core/audit.hpp"
#include "core/fast_check.hpp"
#include "mscript/library.hpp"

namespace mocc::api {
namespace {

using core::Condition;

void expect_same(const core::FastCheckResult& cached, const core::FastCheckResult& scratch,
                 const std::string& what) {
  EXPECT_EQ(cached.constraint_holds, scratch.constraint_holds) << what;
  EXPECT_EQ(cached.legal, scratch.legal) << what;
  EXPECT_EQ(cached.admissible, scratch.admissible) << what;
  EXPECT_EQ(cached.witness, scratch.witness) << what;
  EXPECT_EQ(cached.detail, scratch.detail) << what;
}

void expect_same(const core::AuditReport& cached, const core::AuditReport& scratch,
                 const std::string& what) {
  EXPECT_EQ(cached.ok, scratch.ok) << what;
  EXPECT_EQ(cached.violations, scratch.violations) << what;
}

/// The audit of the recorded run with no cache involved.
core::AuditReport scratch_audit(const System& system) {
  return core::sparse_audit(system.recorder().build_history(),
                            claimed_condition(system.config().protocol),
                            system.recorder().ww_ranks(), system.recorder().timestamps());
}

core::FastCheckResult scratch_check(const System& system, Condition condition) {
  return core::sparse_fast_check(system.recorder().build_history(), condition,
                                 system.recorder().ww_ranks());
}

SystemConfig config_for(const std::string& protocol, const std::string& broadcast,
                        const std::string& mutation) {
  SystemConfig config;
  config.num_processes = 3;
  config.num_objects = 4;
  config.protocol = protocol;
  config.broadcast = broadcast;
  config.delay = "lan";
  config.seed = 31;
  config.mutation = mutation;
  return config;
}

TEST(SystemVerdict, AuditAfterCheckFastEqualsTheScratchAudit) {
  struct Case {
    std::string protocol;
    std::string broadcast;
    std::string mutation;
    std::size_t objects = 4;
  };
  // The mlin skip-delivery mutant runs on one object: with more, its
  // stale replica trips the protocol's own comparability assertion.
  const Case cases[] = {
      {"mseq", "sequencer", ""},         {"mseq", "isis", ""},
      {"mlin", "sequencer", ""},         {"mlin", "isis", ""},
      {"mlin-narrow", "sequencer", ""},  {"mlin-bcastq", "isis", ""},
      {"mseq", "sequencer", "seq-swap"}, {"mseq", "sequencer", "skip-delivery"},
      {"mlin", "sequencer", "skip-delivery", 1},
  };
  std::size_t rejected = 0;
  for (const Case& c : cases) {
    const std::string what = c.protocol + "/" + c.broadcast + "/" + c.mutation;
    SystemConfig config = config_for(c.protocol, c.broadcast, c.mutation);
    config.num_objects = c.objects;
    System system(config);
    protocols::WorkloadParams params;
    params.ops_per_process = 30;
    system.run_workload(params);
    const Condition claimed = claimed_condition(c.protocol);
    expect_same(system.check_fast(claimed), scratch_check(system, claimed), what);
    const core::AuditReport audit = system.audit();
    expect_same(audit, scratch_audit(system), what);
    if (!audit.ok) ++rejected;
  }
  // The mutants are caught: the comparison covers failing reports too.
  EXPECT_GE(rejected, 2u);
}

TEST(SystemVerdict, AuditDoesNotReuseAnotherConditionsCheck) {
  // An mlin run checked for m-SC first: the audit runs its own m-lin pass.
  System mlin(config_for("mlin", "sequencer", ""));
  protocols::WorkloadParams params;
  params.ops_per_process = 30;
  mlin.run_workload(params);
  expect_same(mlin.check_fast(Condition::kMSequentialConsistency),
              scratch_check(mlin, Condition::kMSequentialConsistency), "mlin, m-SC");
  expect_same(mlin.audit(), scratch_audit(mlin), "mlin");

  // The same order where the two verdicts differ: Figure 4's stale query
  // (api_test's Figure5) is m-SC but not m-linearizable. An audit that
  // took check_fast(m-lin)'s result would report its illegal read.
  SystemConfig config = config_for("mseq", "sequencer", "");
  config.num_objects = 1;
  config.delay = "wan";
  config.seed = 7;
  System mseq(config);
  mseq.submit(0, 1, mscript::lib::make_write(0, 5),
              [&](const protocols::InvocationOutcome& out) {
                mseq.submit(2, out.response + 1, mscript::lib::make_read(0));
              });
  mseq.run();
  ASSERT_FALSE(mseq.check_fast(Condition::kMLinearizability).legal);
  const core::AuditReport audit = mseq.audit();
  EXPECT_TRUE(audit.ok) << audit.to_string();
  expect_same(audit, scratch_audit(mseq), "mseq after check_fast(m-lin)");
}

TEST(SystemVerdict, ARunContinuedAfterAVerdictIsCheckedWhole) {
  System system(config_for("mlin", "sequencer", ""));
  const auto submit_round = [&system](std::int64_t salt) {
    for (core::ProcessId p = 0; p < 3; ++p) {
      system.submit(p, system.now() + 1, mscript::lib::make_write(p, salt + p));
      system.submit(p, system.now() + 1, mscript::lib::make_dcas(p, (p + 1) % 4, 0, 0, 1, 2));
      system.submit(p, system.now() + 1, mscript::lib::make_read((p + 2) % 4));
    }
  };
  submit_round(10);
  system.run();
  ASSERT_EQ(system.history().size(), 9u);
  ASSERT_TRUE(system.check_fast(Condition::kMLinearizability).admissible);
  ASSERT_TRUE(system.audit().ok);

  submit_round(20);
  system.run();
  EXPECT_EQ(system.history().size(), 18u);
  expect_same(system.check_fast(Condition::kMLinearizability),
              scratch_check(system, Condition::kMLinearizability), "continued run");
  const core::AuditReport audit = system.audit();
  EXPECT_TRUE(audit.ok) << audit.to_string();
  expect_same(audit, scratch_audit(system), "continued run");
}

}  // namespace
}  // namespace mocc::api
