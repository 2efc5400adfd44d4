// Integration tests through the public System API: the paper's example
// executions (Figures 5 and 7) replayed on the real stack, plus
// cross-protocol consistency sweeps (every protocol × broadcast × delay ×
// seed combination must produce histories satisfying its claimed
// condition, audited and checked).
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "api/system.hpp"
#include "core/verdict.hpp"
#include "mscript/library.hpp"

namespace mocc::api {
namespace {

using core::Condition;
using protocols::InvocationOutcome;

// --------------------------------------------------------------- Figure 5

TEST(Figure5, MSeqExampleExecution) {
  // Two processes, objects (x, y) = (x0, x1), initial 0. P1 and P2 both
  // write x; a later query at P1 reads the value fixed by the abcast
  // order; the per-object versions advance once per write.
  SystemConfig config;
  config.num_processes = 2;
  config.num_objects = 2;
  config.protocol = "mseq";
  config.delay = "lan";
  System system(config);

  system.submit(0, 1, mscript::lib::make_write(0, 1));   // α = w(x)1
  system.submit(1, 1, mscript::lib::make_write(0, 3));   // β = w(x)3
  std::int64_t read_value = -1;
  system.submit(0, 10'000, mscript::lib::make_read(0),
                [&](const InvocationOutcome& out) { read_value = out.return_value; });
  system.run();

  // After both updates deliver everywhere, x holds the abcast-later
  // write; the query (local read at P1) sees it.
  EXPECT_TRUE(read_value == 1 || read_value == 3);
  const auto h = system.history();
  // Versions: x written twice => ts[x] = 2 on the update that delivered
  // second; the query's timestamp matches the final version.
  const auto& trace_recorder = system.recorder();
  const auto query_ts = trace_recorder.record(2).timestamp;
  EXPECT_EQ(query_ts[0], 2u);
  EXPECT_EQ(query_ts[1], 0u);

  EXPECT_TRUE(system.audit().ok);
  EXPECT_TRUE(system.check_fast(Condition::kMSequentialConsistency).admissible);
  EXPECT_EQ(h.size(), 3u);
}

TEST(Figure5, MSeqQueryMayReadStaleButMSCHolds) {
  // The hallmark of Figure 4's protocol: a query can return a value that
  // is stale in real time (another process' update already responded),
  // yet the history stays m-sequentially consistent. With a WAN delay
  // and an immediate local query, P1 reads x=0 after P0's write
  // completed.
  SystemConfig config;
  config.num_processes = 3;
  config.num_objects = 1;
  config.protocol = "mseq";
  config.delay = "wan";
  config.seed = 7;
  System system(config);

  // Chain the query off the write's response so it runs while the
  // fan-out is still in flight (a separate run() would drain it first).
  std::int64_t seen = -1;
  system.submit(0, 1, mscript::lib::make_write(0, 5),
                [&](const InvocationOutcome& out) {
                  system.submit(2, out.response + 1, mscript::lib::make_read(0),
                                [&](const InvocationOutcome& q) {
                                  seen = q.return_value;
                                });
                });
  system.run();

  // P2's replica has not heard the abcast yet (WAN delays are longer
  // than one tick): stale read.
  EXPECT_EQ(seen, 0);
  // Not m-linearizable…
  EXPECT_FALSE(system.check_exact(Condition::kMLinearizability).admissible);
  // …and not m-normal either (writer and reader share x0, so m-normality
  // also enforces their real-time order)…
  EXPECT_FALSE(system.check_exact(Condition::kMNormality).admissible);
  // …but m-sequentially consistent (Theorem 15).
  EXPECT_TRUE(system.check_exact(Condition::kMSequentialConsistency).admissible);
  EXPECT_TRUE(system.audit().ok);
}

// --------------------------------------------------------------- Figure 7

TEST(Figure7, MLinExampleExecution) {
  // P1: α = w(x)1 w(y)3 ; P2: β = w(x)4 ; P3: γ = r(x) query.
  // The query gathers ⟨copy, ts⟩ from every process and reads from the
  // freshest: it must return the value of the LAST x-write in abcast
  // order, never a stale one.
  SystemConfig config;
  config.num_processes = 3;
  config.num_objects = 2;
  config.protocol = "mlin";
  config.delay = "lan";
  System system(config);

  core::Time updates_done = 0;
  system.submit(0, 1,
                mscript::lib::make_m_assign(std::vector<mscript::ObjectId>{0, 1},
                                            std::vector<mscript::Value>{1, 3}),
                [&](const InvocationOutcome& out) {
                  updates_done = std::max(updates_done, out.response);
                });
  system.submit(1, 1, mscript::lib::make_write(0, 4),
                [&](const InvocationOutcome& out) {
                  updates_done = std::max(updates_done, out.response);
                });
  system.run();

  std::int64_t x = -1;
  system.submit(2, updates_done + 1, mscript::lib::make_read(0),
                [&](const InvocationOutcome& out) { x = out.return_value; });
  system.run();

  // Both updates responded before the query was invoked: whatever the
  // abcast order, x is the later write's value — 1 or 4 — and the
  // history must be m-linearizable either way.
  EXPECT_TRUE(x == 1 || x == 4);
  EXPECT_TRUE(system.audit().ok);
  EXPECT_TRUE(system.check_fast(Condition::kMLinearizability).admissible);
  EXPECT_TRUE(system.check_exact(Condition::kMLinearizability).admissible);
}

TEST(Figure7, QueryPicksMaxTimestampCopy) {
  // Force staleness at one replica: with WAN delays P2's copy lags, but
  // the query's ⟨othX, othts⟩ selection must still return the fresh
  // value from a replica that has it.
  SystemConfig config;
  config.num_processes = 3;
  config.num_objects = 1;
  config.protocol = "mlin";
  config.delay = "wan";
  config.seed = 3;
  System system(config);

  std::int64_t seen = -1;
  system.submit(0, 1, mscript::lib::make_write(0, 5),
                [&](const InvocationOutcome& out) {
                  // Query invoked right after the write responds, while
                  // P2's own copy is still stale (fan-out in flight).
                  system.submit(2, out.response + 1, mscript::lib::make_read(0),
                                [&](const InvocationOutcome& q) {
                                  seen = q.return_value;
                                });
                });
  system.run();

  // Unlike the m-seq counterpart of this exact scenario (Figure5 test
  // above), m-lin must NOT return the stale 0.
  EXPECT_EQ(seen, 5);
  EXPECT_TRUE(system.check_exact(Condition::kMLinearizability).admissible);
}

// -------------------------------------------------------------- sweeps

struct SweepParams {
  std::string protocol;
  std::string broadcast;
  std::string delay;
  std::uint64_t seed;
};

class ConsistencySweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(ConsistencySweep, EveryProtocolMeetsItsClaimedCondition) {
  const SweepParams& p = GetParam();
  SystemConfig config;
  config.num_processes = 3;
  config.num_objects = 3;
  config.protocol = p.protocol;
  config.broadcast = p.broadcast;
  config.delay = p.delay;
  config.seed = p.seed;
  System system(config);

  protocols::WorkloadParams params;
  params.ops_per_process = 10;
  params.update_ratio = 0.5;
  params.footprint = 2;
  const auto report = system.run_workload(params);
  EXPECT_EQ(report.queries + report.updates, 30u);

  // Everything except the literal Figure 4 claims m-linearizability
  // (the broadcast-queries variant included).
  const Condition claimed = claimed_condition(p.protocol);

  // Exact checker (budgeted; these histories are small).
  core::AdmissibilityOptions options;
  options.max_states = 5'000'000;
  const auto exact = system.check_exact(claimed, options);
  ASSERT_TRUE(exact.completed);
  EXPECT_TRUE(exact.admissible)
      << p.protocol << "/" << p.broadcast << "/" << p.delay << " seed " << p.seed;
  // Every protocol ranks its updates (abcast position or lock point), so
  // the Theorem-7 check decides on the recorded ranks, with no budget.
  const core::Verdict verdict =
      core::check_history(system.history(), claimed, system.recorder().ww_ranks(), 0);
  EXPECT_TRUE(verdict.ok()) << verdict.detail;
  EXPECT_TRUE(verdict.fast.has_value()) << verdict.detail;

  if (system.supports_audit()) {
    EXPECT_TRUE(system.audit().ok);
    EXPECT_TRUE(system.check_fast(claimed).admissible);
    // m-linearizability implies m-normality and m-SC for these histories.
    if (claimed == Condition::kMLinearizability) {
      EXPECT_TRUE(system.check_fast(Condition::kMNormality).admissible);
      EXPECT_TRUE(system.check_fast(Condition::kMSequentialConsistency).admissible);
    }
  }
}

std::vector<SweepParams> sweep_params() {
  std::vector<SweepParams> all;
  for (const char* protocol : {"mseq", "mlin", "mlin-narrow", "mlin-bcastq"}) {
    for (const char* broadcast : {"sequencer", "isis"}) {
      for (const char* delay : {"lan", "reorder"}) {
        for (std::uint64_t seed : {1ULL, 2ULL}) {
          all.push_back(SweepParams{protocol, broadcast, delay, seed});
        }
      }
    }
  }
  for (const char* protocol : {"locking", "aggregate"}) {
    for (const char* delay : {"lan", "reorder"}) {
      for (std::uint64_t seed : {1ULL, 2ULL}) {
        all.push_back(SweepParams{protocol, "sequencer", delay, seed});
      }
    }
  }
  return all;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ConsistencySweep, ::testing::ValuesIn(sweep_params()),
    [](const ::testing::TestParamInfo<SweepParams>& info) {
      std::string name = info.param.protocol + "_" + info.param.broadcast + "_" +
                         info.param.delay + "_s" + std::to_string(info.param.seed);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ----------------------------------------------------------- system misc

TEST(System, SubmitRespectsRequestedTime) {
  SystemConfig config;
  config.protocol = "mseq";
  System system(config);
  core::Time invoked = 0;
  system.submit(0, 500, mscript::lib::make_read(0),
                [&](const InvocationOutcome& out) { invoked = out.invoke; });
  system.run();
  EXPECT_EQ(invoked, 500u);
}

TEST(System, SubmitQueueSerializesPerProcess) {
  SystemConfig config;
  config.protocol = "mlin";
  config.num_processes = 2;
  System system(config);
  std::vector<std::pair<core::Time, core::Time>> spans;
  for (int i = 0; i < 5; ++i) {
    system.submit(0, 1, mscript::lib::make_read(0),
                  [&](const InvocationOutcome& out) {
                    spans.emplace_back(out.invoke, out.response);
                  });
  }
  system.run();
  ASSERT_EQ(spans.size(), 5u);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].second, spans[i].first);  // no overlap
  }
}

TEST(System, HistorySizeMatchesSubmissions) {
  SystemConfig config;
  config.protocol = "locking";
  System system(config);
  for (int i = 0; i < 7; ++i) {
    system.submit(i % 3, 1 + i, mscript::lib::make_fetch_add(0, 1));
  }
  system.run();
  EXPECT_EQ(system.history().size(), 7u);
}

TEST(System, FetchAddChainYieldsSequentialValues) {
  SystemConfig config;
  config.protocol = "mlin";
  config.num_processes = 3;
  System system(config);
  std::vector<std::int64_t> olds;
  for (int i = 0; i < 9; ++i) {
    system.submit(i % 3, 1, mscript::lib::make_fetch_add(0, 1),
                  [&](const InvocationOutcome& out) {
                    olds.push_back(out.return_value);
                  });
  }
  system.run();
  // 9 atomic increments: the multiset of old values is {0..8}.
  std::sort(olds.begin(), olds.end());
  for (int i = 0; i < 9; ++i) EXPECT_EQ(olds[i], i);
}

TEST(System, DcasAtomicityUnderContention) {
  // Two DCAS race on (x0, x1) from state (0,0): exactly one wins.
  SystemConfig config;
  config.protocol = "mlin";
  config.num_processes = 2;
  config.num_objects = 2;
  System system(config);
  std::vector<std::int64_t> results;
  system.submit(0, 1, mscript::lib::make_dcas(0, 1, 0, 0, 1, 1),
                [&](const InvocationOutcome& out) {
                  results.push_back(out.return_value);
                });
  system.submit(1, 1, mscript::lib::make_dcas(0, 1, 0, 0, 2, 2),
                [&](const InvocationOutcome& out) {
                  results.push_back(out.return_value);
                });
  system.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0] + results[1], 1);  // exactly one succeeded
}

TEST(System, BoundedRunPausesAndResumes) {
  SystemConfig config;
  config.protocol = "mlin";
  config.delay = "wan";  // query round trip far exceeds the bound below
  System system(config);
  bool responded = false;
  system.submit(0, 1, mscript::lib::make_read(0),
                [&](const InvocationOutcome&) { responded = true; });
  system.run(/*max_time=*/5);
  EXPECT_FALSE(responded);
  EXPECT_EQ(system.now(), 5u);
  system.run();  // resume to quiescence
  EXPECT_TRUE(responded);
}

TEST(System, NowAdvancesMonotonically) {
  SystemConfig config;
  config.protocol = "mseq";
  System system(config);
  std::vector<sim::SimTime> stamps;
  for (int i = 0; i < 4; ++i) {
    system.submit(0, 1, mscript::lib::make_fetch_add(0, 1),
                  [&](const InvocationOutcome&) { stamps.push_back(system.now()); });
  }
  system.run();
  ASSERT_EQ(stamps.size(), 4u);
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_LT(stamps[i - 1], stamps[i]);  // ≥1 tick of local step time
  }
}

TEST(SystemDeath, UnknownProtocolAborts) {
  SystemConfig config;
  config.protocol = "quantum";
  EXPECT_DEATH(System{config}, "unknown protocol");
}

}  // namespace
}  // namespace mocc::api
