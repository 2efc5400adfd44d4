// Protocol-level behaviour: Figure-4 (m-seq) and Figure-6 (m-lin)
// replicas, the locking/aggregate baselines, the execution recorder, and
// the workload driver — all through the public System façade plus
// targeted scenarios.
#include <gtest/gtest.h>

#include <memory>

#include "abcast/abcast.hpp"
#include "api/system.hpp"
#include "core/verdict.hpp"
#include "mscript/library.hpp"
#include "protocols/mlin_replica.hpp"
#include "sim/delay.hpp"

namespace mocc::protocols {
namespace {

using api::System;
using api::SystemConfig;
using core::Condition;

SystemConfig config_for(const std::string& protocol, std::size_t n = 3,
                        std::size_t objects = 4, const std::string& delay = "lan") {
  SystemConfig config;
  config.num_processes = n;
  config.num_objects = objects;
  config.protocol = protocol;
  config.delay = delay;
  config.seed = 2024;
  return config;
}

// --------------------------------------------------------------- m-seq

TEST(MSeq, QueryCostsNoMessages) {
  System system(config_for("mseq", 4));
  std::int64_t result = -1;
  system.submit(1, 1, mscript::lib::make_read(0),
                [&](const InvocationOutcome& out) { result = out.return_value; });
  system.run();
  EXPECT_EQ(result, 0);
  EXPECT_EQ(system.traffic().messages, 0u);  // A3: purely local
}

TEST(MSeq, QueryRespondsInstantly) {
  System system(config_for("mseq", 4));
  InvocationOutcome outcome;
  system.submit(2, 5, mscript::lib::make_read(1),
                [&](const InvocationOutcome& out) { outcome = out; });
  system.run();
  EXPECT_EQ(outcome.invoke, outcome.response);  // zero virtual latency
}

TEST(MSeq, UpdatePropagatesToAllReplicas) {
  System system(config_for("mseq", 3));
  system.submit(0, 1, mscript::lib::make_write(2, 77));
  std::int64_t seen = -1;
  // A later query at ANOTHER process: m-seq gives no recency guarantee,
  // but once the simulation drains, every replica has applied the write.
  system.submit(1, 10'000, mscript::lib::make_read(2),
                [&](const InvocationOutcome& out) { seen = out.return_value; });
  system.run();
  EXPECT_EQ(seen, 77);
}

TEST(MSeq, HistoryIsMSequentiallyConsistent) {
  System system(config_for("mseq", 3));
  system.submit(0, 1, mscript::lib::make_write(0, 1));
  system.submit(1, 1, mscript::lib::make_write(0, 2));
  system.submit(2, 2, mscript::lib::make_read(0));
  system.submit(0, 3, mscript::lib::make_fetch_add(1, 5));
  system.run();
  const auto result = system.check_exact(Condition::kMSequentialConsistency);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.admissible);
}

TEST(MSeq, AuditPassesAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto config = config_for("mseq", 3, 4, "reorder");
    config.seed = seed;
    System system(config);
    WorkloadParams params;
    params.ops_per_process = 15;
    params.update_ratio = 0.6;
    system.run_workload(params);
    const auto audit = system.audit();
    EXPECT_TRUE(audit.ok) << "seed " << seed << "\n" << audit.to_string();
  }
}

// --------------------------------------------------------------- m-lin

TEST(MLin, QueryObservesCompletedUpdateElsewhere) {
  // The recency m-seq lacks: P0's update completes, then P1 queries.
  // m-linearizability REQUIRES the query to see it.
  auto config = config_for("mlin", 3, 2, "wan");  // slow network
  System system(config);
  std::int64_t seen = -1;
  system.submit(0, 1, mscript::lib::make_write(0, 9),
                [&](const InvocationOutcome& out) {
                  // Query at another process immediately after the update
                  // responds, while replicas may still be stale.
                  system.submit(1, out.response + 1, mscript::lib::make_read(0),
                                [&](const InvocationOutcome& q) {
                                  seen = q.return_value;
                                });
                });
  system.run();
  EXPECT_EQ(seen, 9);
}

TEST(MLin, QueryCostsTwoRoundTripsToAll) {
  constexpr std::size_t n = 5;
  System system(config_for("mlin", n));
  system.submit(0, 1, mscript::lib::make_read(0));
  system.run();
  EXPECT_EQ(system.traffic().messages, 2 * (n - 1));  // query + replies
}

TEST(MLin, HistoryIsMLinearizable) {
  System system(config_for("mlin", 3));
  system.submit(0, 1, mscript::lib::make_write(0, 1));
  system.submit(1, 1, mscript::lib::make_dcas(0, 1, 0, 0, 5, 6));
  system.submit(2, 2, mscript::lib::make_sum(std::vector<mscript::ObjectId>{0, 1}));
  system.submit(0, 3, mscript::lib::make_read(1));
  system.run();
  const auto exact = system.check_exact(Condition::kMLinearizability);
  ASSERT_TRUE(exact.completed);
  EXPECT_TRUE(exact.admissible);
  // Theorem-7 fast check agrees.
  const auto fast = system.check_fast(Condition::kMLinearizability);
  EXPECT_TRUE(fast.constraint_holds);
  EXPECT_TRUE(fast.admissible);
}

TEST(MLin, AuditPassesUnderHeavyReorder) {
  for (std::uint64_t seed = 11; seed <= 15; ++seed) {
    auto config = config_for("mlin", 4, 3, "reorder");
    config.seed = seed;
    System system(config);
    WorkloadParams params;
    params.ops_per_process = 12;
    params.update_ratio = 0.5;
    system.run_workload(params);
    const auto audit = system.audit();
    EXPECT_TRUE(audit.ok) << "seed " << seed << "\n" << audit.to_string();
  }
}

// The skip-delivery mutant over several objects: its stale replica lags
// on one object and leads on another, so full query replies can carry
// incomparable timestamps. The run must still complete — Figure 6 keeps
// the lexicographically largest copy — and a checker must reject it.
TEST(MLin, SkipDeliveryOnSeveralObjectsCompletesAndFailsACheck) {
  auto config = config_for("mlin", 3, 4);
  config.seed = 31;
  config.mutation = "skip-delivery";
  System system(config);
  WorkloadParams params;
  params.ops_per_process = 50;
  const auto report = system.run_workload(params);
  ASSERT_EQ(report.queries + report.updates, 3u * params.ops_per_process);
  const auto fast = system.check_fast(Condition::kMLinearizability);
  const bool fast_ok = fast.constraint_holds && fast.legal && fast.admissible;
  EXPECT_FALSE(fast_ok && system.audit().ok) << "a skip-delivery run passed every checker";
}

TEST(MLin, NarrowRepliesProduceEquivalentResults) {
  // §5.2's optimization must not change any outcome: run the same
  // scripted workload on both variants and compare histories.
  auto run_variant = [](const std::string& protocol) {
    System system(config_for(protocol, 3, 4, "lan"));
    system.submit(0, 1, mscript::lib::make_write(0, 5));
    system.submit(1, 2, mscript::lib::make_m_assign(
                            std::vector<mscript::ObjectId>{1, 2},
                            std::vector<mscript::Value>{7, 8}));
    system.submit(2, 3, mscript::lib::make_sum(std::vector<mscript::ObjectId>{0, 1}));
    system.submit(0, 4, mscript::lib::make_read(2));
    system.run();
    return system.history();
  };
  const auto full = run_variant("mlin");
  const auto narrow = run_variant("mlin-narrow");
  EXPECT_TRUE(full.equivalent(narrow));
}

TEST(MLin, NarrowRepliesShrinkQueryBytes) {
  auto bytes_for = [](const std::string& protocol) {
    // Many objects, tiny query footprint: narrowing should pay off.
    System system(config_for(protocol, 3, 64, "lan"));
    system.submit(0, 1, mscript::lib::make_read(0));
    system.run();
    return system.traffic().bytes;
  };
  // Narrow replies drop the copies/writers of unrelated objects but keep
  // the full version vector (8B/object) so the recorded trace still
  // satisfies P5.3 verbatim — hence ~2x, not ~footprint/n.
  EXPECT_LT(bytes_for("mlin-narrow"), bytes_for("mlin") / 2);
}

TEST(MLin, NarrowAuditStillPasses) {
  auto config = config_for("mlin-narrow", 3, 4, "reorder");
  System system(config);
  WorkloadParams params;
  params.ops_per_process = 10;
  system.run_workload(params);
  EXPECT_TRUE(system.audit().ok);
}

// ---------------------------------------------------------- mlin-bcastq

TEST(MLinBcastQ, QueryObservesCompletedUpdateElsewhere) {
  // The broadcast-queries ablation must give the same recency guarantee
  // as Figure 6, through a different mechanism (total-order placement
  // instead of fresh-copy construction).
  auto config = config_for("mlin-bcastq", 3, 2, "wan");
  System system(config);
  std::int64_t seen = -1;
  system.submit(0, 1, mscript::lib::make_write(0, 9),
                [&](const InvocationOutcome& out) {
                  system.submit(1, out.response + 1, mscript::lib::make_read(0),
                                [&](const InvocationOutcome& q) {
                                  seen = q.return_value;
                                });
                });
  system.run();
  EXPECT_EQ(seen, 9);
}

TEST(MLinBcastQ, QueryPaysBroadcastNotRoundTrips) {
  // Cost profile differs from Figure 6: one abcast (n-1 fan-out +
  // submit) instead of 2(n-1) query/reply messages.
  constexpr std::size_t n = 5;
  System system(config_for("mlin-bcastq", n));
  system.submit(1, 1, mscript::lib::make_read(0));  // non-sequencer origin
  system.run();
  EXPECT_EQ(system.traffic().messages, n);  // submit + (n-1) fan-out
}

TEST(MLinBcastQ, HistoryIsMLinearizableAndAudited) {
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    auto config = config_for("mlin-bcastq", 3, 3, "reorder");
    config.seed = seed;
    System system(config);
    WorkloadParams params;
    params.ops_per_process = 10;
    params.update_ratio = 0.4;
    system.run_workload(params);
    EXPECT_TRUE(system.audit().ok) << "seed " << seed;
    EXPECT_TRUE(system.check_fast(Condition::kMLinearizability).admissible)
        << "seed " << seed;
    const auto exact = system.check_exact(Condition::kMLinearizability);
    ASSERT_TRUE(exact.completed);
    EXPECT_TRUE(exact.admissible) << "seed " << seed;
  }
}

// ------------------------------------------------------------- locking

TEST(Locking, BasicReadWrite) {
  System system(config_for("locking", 3));
  system.submit(0, 1, mscript::lib::make_write(1, 42));
  std::int64_t seen = -1;
  system.submit(1, 10'000, mscript::lib::make_read(1),
                [&](const InvocationOutcome& out) { seen = out.return_value; });
  system.run();
  EXPECT_EQ(seen, 42);
}

TEST(Locking, TransfersConserveTotal) {
  auto config = config_for("locking", 4, 4);
  System system(config);
  // Seed balances.
  for (mscript::ObjectId x = 0; x < 4; ++x) {
    system.submit(0, 1, mscript::lib::make_write(x, 100));
  }
  system.run();
  // Concurrent transfers from every process.
  for (core::ProcessId p = 0; p < 4; ++p) {
    for (int i = 0; i < 5; ++i) {
      system.submit(p, 10 + i, mscript::lib::make_transfer(p % 4, (p + 1) % 4, 10));
    }
  }
  system.run();
  std::int64_t total = -1;
  system.submit(0, 1'000'000,
                mscript::lib::make_sum(std::vector<mscript::ObjectId>{0, 1, 2, 3}),
                [&](const InvocationOutcome& out) { total = out.return_value; });
  system.run();
  EXPECT_EQ(total, 400);
}

TEST(Locking, HistoryIsMLinearizable) {
  auto config = config_for("locking", 3, 3);
  System system(config);
  system.submit(0, 1, mscript::lib::make_write(0, 1));
  system.submit(1, 1, mscript::lib::make_transfer(0, 1, 1));
  system.submit(2, 1, mscript::lib::make_dcas(1, 2, 0, 0, 3, 4));
  system.submit(0, 2, mscript::lib::make_sum(std::vector<mscript::ObjectId>{0, 1, 2}));
  system.run();
  const auto exact = system.check_exact(Condition::kMLinearizability);
  ASSERT_TRUE(exact.completed);
  EXPECT_TRUE(exact.admissible);
}

TEST(Locking, MLinearizableAcrossSeedsAndDelays) {
  for (const char* delay : {"lan", "reorder"}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      auto config = config_for("locking", 3, 3, delay);
      config.seed = seed;
      System system(config);
      WorkloadParams params;
      params.ops_per_process = 8;
      params.update_ratio = 0.5;
      system.run_workload(params);
      const auto exact = system.check_exact(Condition::kMLinearizability);
      ASSERT_TRUE(exact.completed) << delay << " seed " << seed;
      EXPECT_TRUE(exact.admissible) << delay << " seed " << seed;
      // The lock points are a ~ww the Theorem-7 check accepts.
      const core::Verdict verdict = core::check_history(
          system.history(), Condition::kMLinearizability, system.recorder().ww_ranks(), 0);
      EXPECT_TRUE(verdict.ok()) << delay << " seed " << seed << ": " << verdict.detail;
      EXPECT_TRUE(verdict.fast.has_value()) << delay << " seed " << seed;
    }
  }
}

// One process with think time 0 and every lock and object local runs
// each update inside the tick the last one completed, so they share a
// lock point: all but the first stay unranked, and the verdict leaves
// Theorem 7 for the exact search instead of reading a tied rank as a
// violation.
TEST(Locking, UpdatesSharingALockPointStayUnranked) {
  System system(config_for("locking", 1, 2));
  WorkloadParams params;
  params.ops_per_process = 4;
  params.update_ratio = 1.0;
  params.think_time = 0;
  system.run_workload(params);
  const core::WwRanks ranks = system.recorder().ww_ranks();
  ASSERT_EQ(ranks.size(), 4u);
  EXPECT_TRUE(ranks[0].has_value());
  EXPECT_FALSE(ranks[3].has_value());
  const core::Verdict verdict =
      core::check_history(system.history(), Condition::kMLinearizability, ranks, 1000);
  EXPECT_TRUE(verdict.ok()) << verdict.detail;
  EXPECT_TRUE(verdict.exact.has_value()) << verdict.detail;
}

TEST(Locking, NoAuditSupport) {
  System system(config_for("locking"));
  EXPECT_FALSE(system.supports_audit());
}

// ------------------------------------------------------------ aggregate

TEST(Aggregate, StillCorrectJustSlower) {
  auto config = config_for("aggregate", 3, 4);
  System system(config);
  system.submit(0, 1, mscript::lib::make_write(0, 1));
  system.submit(1, 1, mscript::lib::make_write(1, 2));
  system.submit(2, 2, mscript::lib::make_sum(std::vector<mscript::ObjectId>{0, 1}));
  system.run();
  const auto exact = system.check_exact(Condition::kMLinearizability);
  ASSERT_TRUE(exact.completed);
  EXPECT_TRUE(exact.admissible);
}

TEST(Aggregate, SerializesDisjointOperations) {
  // Two updates on DISJOINT objects: under per-object locking they
  // proceed in parallel; under the aggregate lock they queue. Compare
  // virtual completion times.
  auto run_with = [](const std::string& protocol) {
    auto config = config_for(protocol, 2, 2, "constant");
    System system(config);
    core::Time t0 = 0;
    core::Time t1 = 0;
    system.submit(0, 1, mscript::lib::make_write(0, 1),
                  [&](const InvocationOutcome& out) { t0 = out.response; });
    system.submit(1, 1, mscript::lib::make_write(1, 2),
                  [&](const InvocationOutcome& out) { t1 = out.response; });
    system.run();
    return std::max(t0, t1);
  };
  EXPECT_LT(run_with("locking"), run_with("aggregate"));
}

// -------------------------------------------------------------- recorder

TEST(Recorder, AssignsIdsAtInvocation) {
  ExecutionRecorder recorder(2, 2);
  const auto a = recorder.begin(0, "a", 1);
  const auto b = recorder.begin(1, "b", 2);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_FALSE(recorder.all_completed());
  recorder.complete(a, {core::Operation::write(0, 1)}, 3, util::VersionVector(2),
                    std::nullopt);
  recorder.complete(b, {core::Operation::read(0, 1, a)}, 4, util::VersionVector(2),
                    std::nullopt);
  EXPECT_TRUE(recorder.all_completed());
  const auto h = recorder.build_history();
  EXPECT_EQ(h.size(), 2u);
  EXPECT_TRUE(h.reads_from(a, b));
}

TEST(RecorderDeath, DoubleCompleteAborts) {
  ExecutionRecorder recorder(1, 1);
  const auto a = recorder.begin(0, "a", 1);
  recorder.complete(a, {}, 2, util::VersionVector(1), std::nullopt);
  EXPECT_DEATH(recorder.complete(a, {}, 3, util::VersionVector(1), std::nullopt),
               "double completion");
}

TEST(RecorderDeath, BuildWithOutstandingAborts) {
  ExecutionRecorder recorder(1, 1);
  recorder.begin(0, "a", 1);
  EXPECT_DEATH((void)recorder.build_history(), "outstanding");
}

TEST(Recorder, WwOrderFollowsSequenceNumbers) {
  ExecutionRecorder recorder(2, 1);
  const auto a = recorder.begin(0, "a", 1);
  const auto b = recorder.begin(1, "b", 1);
  // b delivered first in the abcast order.
  recorder.complete(b, {core::Operation::write(0, 1)}, 5,
                    util::VersionVector::from_entries({1}), 0);
  recorder.complete(a, {core::Operation::write(0, 2)}, 6,
                    util::VersionVector::from_entries({2}), 1);
  const auto ww = core::ww_order(recorder.ww_ranks());
  EXPECT_TRUE(ww.has(b, a));
  EXPECT_FALSE(ww.has(a, b));
}

// -------------------------------------------------------------- workload

TEST(Workload, DrivesAllProcessesToCompletion) {
  System system(config_for("mseq", 3, 4));
  WorkloadParams params;
  params.ops_per_process = 10;
  params.update_ratio = 0.5;
  const auto report = system.run_workload(params);
  EXPECT_EQ(report.queries + report.updates, 30u);
  EXPECT_EQ(system.history().size(), 30u);
}

TEST(Workload, UpdateRatioRespectedApproximately) {
  System system(config_for("mseq", 4, 8));
  WorkloadParams params;
  params.ops_per_process = 50;
  params.update_ratio = 0.2;
  const auto report = system.run_workload(params);
  const double ratio =
      static_cast<double>(report.updates) / (report.updates + report.queries);
  EXPECT_NEAR(ratio, 0.2, 0.1);
}

/// Requests a stop at the simulator's `after`-th m-operation response.
class StopAfterResponses final : public obs::TraceSink {
 public:
  StopAfterResponses(sim::Simulator& sim, std::size_t after) : sim_(sim), left_(after) {}
  void on_event(const obs::TraceEvent& event) override {
    if (event.type == obs::TraceEventType::kMOpRespond && left_ > 0 && --left_ == 0) {
      sim_.request_stop();
    }
  }

 private:
  sim::Simulator& sim_;
  std::size_t left_;
};

TEST(Workload, AStoppedRunResumesToCompletion) {
  // run_workload returns when a stop is requested; its issue loops stay
  // queued in the simulator and in the replicas, and must still be valid
  // when the simulation resumes.
  constexpr std::size_t kProcesses = 3;
  constexpr std::size_t kObjects = 4;
  ExecutionRecorder recorder(kProcesses, kObjects);
  sim::Simulator sim(sim::make_delay_model("lan"), 9);
  std::vector<Replica*> replicas;
  for (std::size_t p = 0; p < kProcesses; ++p) {
    auto replica = std::make_unique<MLinReplica>(
        kObjects, abcast::make_abcast_factory("sequencer")(), recorder);
    replicas.push_back(replica.get());
    sim.add_node(std::move(replica));
  }
  StopAfterResponses stop(sim, 10);
  sim.set_trace_sink(&stop);
  WorkloadParams params;
  params.ops_per_process = 20;
  const WorkloadReport partial = run_workload(sim, replicas, kObjects, params, 1);
  EXPECT_EQ(partial.queries + partial.updates, 10u);

  sim.set_trace_sink(nullptr);
  sim.clear_stop();
  sim.run();
  EXPECT_EQ(recorder.size(), kProcesses * params.ops_per_process);
  EXPECT_TRUE(recorder.all_completed());
}

TEST(Workload, ZipfSkewStillCompletes) {
  System system(config_for("mlin", 3, 8));
  WorkloadParams params;
  params.ops_per_process = 10;
  params.zipf_skew = 1.2;
  const auto report = system.run_workload(params);
  EXPECT_EQ(report.queries + report.updates, 30u);
  EXPECT_TRUE(system.audit().ok);
}

}  // namespace
}  // namespace mocc::protocols
