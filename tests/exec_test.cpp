// Multicore execution engine (src/exec): store primitives, OCC commit
// protocol invariants, deterministic log merge, and the end-to-end
// checker verdict on real multi-threaded runs.
//
// The big verified run shrinks under ThreadSanitizer (instrumentation
// slows the workers ~10x); CI's exec-stress step runs exactly these
// tests on the tsan preset at 8 threads.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/engine.hpp"
#include "exec/store.hpp"
#include "exec/verify.hpp"
#include "obs/trace.hpp"

#if defined(__SANITIZE_THREAD__)
#define MOCC_EXEC_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MOCC_EXEC_TEST_TSAN 1
#endif
#endif
#ifndef MOCC_EXEC_TEST_TSAN
#define MOCC_EXEC_TEST_TSAN 0
#endif

#if defined(__SANITIZE_ADDRESS__)
#define MOCC_EXEC_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MOCC_EXEC_TEST_ASAN 1
#endif
#endif
#ifndef MOCC_EXEC_TEST_ASAN
#define MOCC_EXEC_TEST_ASAN 0
#endif

namespace mocc::exec {
namespace {

TEST(ExecStoreTest, InitialStateAndStableRead) {
  ObjectStore store(4, /*initial_value=*/7);
  EXPECT_EQ(store.size(), 4u);
  for (core::ObjectId x = 0; x < 4; ++x) {
    const StableRead r = store.stable_read(x);
    EXPECT_EQ(r.value, 7);
    EXPECT_EQ(r.tid, kInitialTid);
    EXPECT_EQ(store.committed_value(x), 7);
    EXPECT_FALSE(is_locked(store.word(x)));
  }
}

TEST(ExecStoreTest, LockPublishUnlockRoundTrip) {
  ObjectStore store(2);
  std::uint64_t observed = ~0ull;
  ASSERT_TRUE(store.try_lock(0, observed));
  EXPECT_EQ(observed, kInitialTid);
  EXPECT_TRUE(is_locked(store.word(0)));
  // Second lock attempt on a held lock fails and reports the word.
  std::uint64_t observed2 = 0;
  EXPECT_FALSE(store.try_lock(0, observed2));
  EXPECT_TRUE(is_locked(observed2));
  store.write_and_unlock(0, 42, /*tid=*/9);
  EXPECT_FALSE(is_locked(store.word(0)));
  EXPECT_EQ(store.stable_read(0).value, 42);
  EXPECT_EQ(store.stable_read(0).tid, 9u);

  // Abort path restores the pre-lock word without touching the value.
  ASSERT_TRUE(store.try_lock(1, observed));
  store.unlock(1, observed);
  EXPECT_EQ(store.stable_read(1).value, 0);
  EXPECT_EQ(store.stable_read(1).tid, kInitialTid);
}

TEST(ExecStoreTest, VersionWordLayout) {
  EXPECT_FALSE(is_locked(0));
  EXPECT_TRUE(is_locked(kLockBit));
  EXPECT_EQ(tid_of(kLockBit | 17), 17u);
  EXPECT_EQ(tid_of(17), 17u);
}

ExecConfig small_config() {
  ExecConfig config;
  config.threads = 1;
  config.objects = 16;
  config.mops_per_thread = 500;
  config.footprint = 3;
  config.query_ratio = 0.4;
  config.rmw_ratio = 0.5;
  config.seed = 11;
  return config;
}

TEST(ExecEngineTest, SingleThreadCommitsEverythingFirstTry) {
  const ExecConfig config = small_config();
  const ExecResult result = run(config);
  EXPECT_EQ(result.stats.committed, config.mops_per_thread);
  EXPECT_EQ(result.stats.aborted_validation, 0u);
  EXPECT_EQ(result.stats.aborted_lock, 0u);
  EXPECT_EQ(result.stats.abandoned, 0u);
  ASSERT_EQ(result.logs.size(), 1u);
  for (const CommittedMop& mop : result.logs[0]) {
    EXPECT_EQ(mop.attempts, 1u);
    EXPECT_LT(mop.invoke, mop.response);
  }
  const VerifyReport report = verify_execution(result);
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_EQ(report.mops, config.mops_per_thread);
}

TEST(ExecEngineTest, SingleThreadRunsAreDeterministic) {
  const ExecConfig config = small_config();
  const ExecResult a = run(config);
  const ExecResult b = run(config);
  ASSERT_EQ(a.logs.size(), b.logs.size());
  ASSERT_EQ(a.logs[0].size(), b.logs[0].size());
  for (std::size_t i = 0; i < a.logs[0].size(); ++i) {
    const CommittedMop& x = a.logs[0][i];
    const CommittedMop& y = b.logs[0][i];
    EXPECT_EQ(x.tid, y.tid);
    EXPECT_EQ(x.invoke, y.invoke);
    EXPECT_EQ(x.response, y.response);
    EXPECT_EQ(x.is_update, y.is_update);
    ASSERT_EQ(x.ops.size(), y.ops.size());
    for (std::size_t k = 0; k < x.ops.size(); ++k) {
      EXPECT_EQ(x.ops[k].type, y.ops[k].type);
      EXPECT_EQ(x.ops[k].object, y.ops[k].object);
      EXPECT_EQ(x.ops[k].value, y.ops[k].value);
      EXPECT_EQ(x.ops[k].from_tid, y.ops[k].from_tid);
    }
  }
  EXPECT_EQ(a.final_values, b.final_values);
}

TEST(ExecEngineTest, MergeIsSortedByEpochThenTidAndTidsAreUnique) {
  ExecConfig config = small_config();
  config.threads = 4;
  config.mops_per_thread = 300;
  const ExecResult result = run(config);
  const std::vector<const CommittedMop*> merged = merge_logs(result);
  ASSERT_EQ(merged.size(), result.stats.committed);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LT(merged[i - 1]->tid, merged[i]->tid);
    EXPECT_LE(epoch_of(merged[i - 1]->tid), epoch_of(merged[i]->tid));
  }
  // Per-worker logs are in local commit order and per-process stamps are
  // sequential (response < next invoke), which is what makes the merged
  // history's program order consistent with tid order.
  for (const auto& log : result.logs) {
    for (std::size_t i = 1; i < log.size(); ++i) {
      EXPECT_LT(log[i - 1].tid, log[i].tid);
      EXPECT_LT(log[i - 1].response, log[i].invoke);
    }
  }
}

TEST(ExecEngineTest, EpochAdvancesWithTidDraws) {
  EXPECT_EQ(epoch_of(1), 0u);
  EXPECT_EQ(epoch_of((1ull << kEpochShift) - 1), 0u);
  EXPECT_EQ(epoch_of(1ull << kEpochShift), 1u);
  EXPECT_EQ(epoch_of(3ull << kEpochShift), 3u);
}

// Pure rmw single-object-footprint workload: every commit increments
// exactly one object by one, so — absent lost updates — the final values
// sum to the committed count. A direct, checker-independent witness that
// OCC validation kept every increment.
TEST(ExecEngineTest, ContendedIncrementsAreNeverLost) {
  ExecConfig config;
  config.threads = MOCC_EXEC_TEST_TSAN ? 4 : 8;
  config.objects = 4;  // heavy write contention
  config.mops_per_thread = MOCC_EXEC_TEST_TSAN ? 500 : 4000;
  config.footprint = 1;
  config.query_ratio = 0.0;
  config.rmw_ratio = 1.0;
  config.seed = 5;
  const ExecResult result = run(config);
  EXPECT_EQ(result.stats.committed, config.threads * config.mops_per_thread);
  core::Value sum = 0;
  for (const core::Value v : result.final_values) sum += v;
  EXPECT_EQ(static_cast<std::uint64_t>(sum), result.stats.committed);
  const VerifyReport report = verify_execution(result);
  EXPECT_TRUE(report.ok) << report.to_string();
}

TEST(ExecEngineTest, QueryOnlyWorkloadVerifies) {
  ExecConfig config = small_config();
  config.threads = 2;
  config.query_ratio = 1.0;
  const ExecResult result = run(config);
  for (const auto& log : result.logs) {
    for (const CommittedMop& mop : log) EXPECT_FALSE(mop.is_update);
  }
  const VerifyReport report = verify_execution(result);
  EXPECT_TRUE(report.ok) << report.to_string();
}

TEST(ExecEngineTest, TraceSinkSeesEveryCommit) {
  obs::RingBufferSink sink(4096);
  ExecConfig config = small_config();
  const ExecResult result = run(config, &sink);
  std::size_t commits = 0;
  for (const obs::TraceEvent& event : sink.events()) {
    if (event.type == obs::TraceEventType::kExecCommit) {
      ++commits;
      EXPECT_EQ(event.arg, 1u);  // single thread: first-try commits
    } else {
      EXPECT_EQ(event.type, obs::TraceEventType::kExecAbort);
    }
  }
  EXPECT_EQ(commits, result.stats.committed);
}

// The acceptance-scale run: >= 100k committed m-operations from 8 real
// threads, merged and replayed in tid order as the witness (real-time
// contract, per-worker order, every read's writer and value, the final
// state). Shrunk under TSan; the tsan leg's job is the race sweep, not
// the checker workout.
TEST(ExecEngineTest, VerifiedMultiThreadRun) {
  ExecConfig config;
  config.threads = 8;
  config.objects = MOCC_EXEC_TEST_TSAN ? 64 : 128;
  config.mops_per_thread = MOCC_EXEC_TEST_TSAN ? 1500 : 13000;
  config.footprint = 4;
  config.query_ratio = 0.4;
  config.rmw_ratio = 0.5;
  config.zipf_skew = 0.6;
  config.seed = 42;
  const ExecResult result = run(config);
  ASSERT_GE(result.stats.committed,
            MOCC_EXEC_TEST_TSAN ? 12000u : 104000u);
  const VerifyReport report = verify_execution(result);
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_EQ(report.mops, result.stats.committed);
  EXPECT_EQ(report.windows, 1u);  // one pass over the whole merged log
}

/// One hand-written committed m-operation (committed first try).
struct HandMop {
  std::uint32_t worker = 0;
  std::uint64_t tid = 0;
  std::uint64_t invoke = 0;
  std::uint64_t response = 0;
  std::vector<LoggedOp> ops;
};

/// An execution as exec::run would log it: one worker per distinct
/// `worker` id up to the largest, each m-operation's ops copied into its
/// worker's op buffer, which is reserved first so the views stay valid.
ExecResult hand_built(std::size_t objects, const std::vector<HandMop>& mops,
                      std::vector<core::Value> final_values) {
  std::size_t threads = 0;
  std::size_t total_ops = 0;
  for (const HandMop& mop : mops) {
    threads = std::max<std::size_t>(threads, mop.worker + 1);
    total_ops += mop.ops.size();
  }
  ExecResult result;
  result.config.threads = threads;
  result.config.objects = objects;
  result.config.mops_per_thread = 1;
  result.stats.committed = mops.size();
  result.logs.resize(threads);
  result.op_buffers.resize(threads);
  for (std::pmr::vector<LoggedOp>& buffer : result.op_buffers) buffer.reserve(total_ops);
  for (const HandMop& mop : mops) {
    std::pmr::vector<LoggedOp>& buffer = result.op_buffers[mop.worker];
    const std::size_t first_op = buffer.size();
    buffer.insert(buffer.end(), mop.ops.begin(), mop.ops.end());
    const bool is_update = std::any_of(mop.ops.begin(), mop.ops.end(), [](const LoggedOp& op) {
      return op.type == core::OpType::kWrite;
    });
    result.logs[mop.worker].push_back({mop.worker, mop.tid, mop.invoke, mop.response,
                                       /*attempts=*/1, is_update,
                                       std::span<LoggedOp>(buffer).subspan(first_op)});
  }
  result.final_values = std::move(final_values);
  return result;
}

// A deliberately corrupted "execution": two m-operations both read x's
// initial version and both write x — the classic OCC lost-update anomaly
// that read-set validation exists to prevent. The replay invariant and
// the checkers must reject it.
TEST(ExecVerifyTest, HandBuiltLostUpdateIsRejected) {
  const ExecResult result = hand_built(
      /*objects=*/1,
      {{/*worker=*/0, /*tid=*/1, /*invoke=*/0, /*response=*/4,
        {{core::OpType::kRead, 0, 0, kInitialTid},
         {core::OpType::kWrite, 0, 1, kInitialTid}}},
       {/*worker=*/1, /*tid=*/2, /*invoke=*/1, /*response=*/5,
        {{core::OpType::kRead, 0, 0, kInitialTid},  // lost update: stale read
         {core::OpType::kWrite, 0, 1, kInitialTid}}}},
      /*final_values=*/{1});
  const VerifyReport report = verify_execution(result);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.violations.empty());
}

// Same shape but with the second read naming the first writer — the
// schedule OCC actually produces — must pass, pinning that the rejection
// above is the anomaly, not the harness.
TEST(ExecVerifyTest, HandBuiltSerializedPairIsAccepted) {
  const ExecResult result = hand_built(
      /*objects=*/1,
      {{0, /*tid=*/1, /*invoke=*/0, /*response=*/4,
        {{core::OpType::kRead, 0, 0, kInitialTid},
         {core::OpType::kWrite, 0, 1, kInitialTid}}},
       {1, /*tid=*/2, /*invoke=*/5, /*response=*/6,
        {{core::OpType::kRead, 0, 1, /*from_tid=*/1},
         {core::OpType::kWrite, 0, 2, kInitialTid}}}},
      /*final_values=*/{2});
  const VerifyReport report = verify_execution(result);
  EXPECT_TRUE(report.ok) << report.to_string();
}

// Stale final state (e.g. a write published to the log but not the
// store) is caught by the final-state cross-check.
TEST(ExecVerifyTest, FinalStateMismatchIsRejected) {
  const ExecResult result = hand_built(
      /*objects=*/1,
      {{0, /*tid=*/1, /*invoke=*/0, /*response=*/1,
        {{core::OpType::kWrite, 0, 7, kInitialTid}}}},
      /*final_values=*/{0});  // store says 0, log says 7
  const VerifyReport report = verify_execution(result);
  EXPECT_FALSE(report.ok);
}

bool mentions(const VerifyReport& report, const std::string& needle) {
  return std::any_of(
      report.violations.begin(), report.violations.end(),
      [&needle](const std::string& v) { return v.find(needle) != std::string::npos; });
}

// Contract (a): tid 3 writes x0 and responds at 6, before tid 2 is
// invoked at 20, yet tid 2 reads x0's initial value. The name recalls a
// windowed verifier that missed this with two m-operations per window.
TEST(ExecVerifyTest, RealTimeInversionAcrossAWindowCutIsRejected) {
  const ExecResult result = hand_built(
      /*objects=*/2,
      {{/*worker=*/0, /*tid=*/1, /*invoke=*/1, /*response=*/2,
        {{core::OpType::kRead, 1, 0, kInitialTid}}},
       {/*worker=*/0, /*tid=*/2, /*invoke=*/20, /*response=*/21,
        {{core::OpType::kRead, 0, 0, kInitialTid}}},
       {/*worker=*/1, /*tid=*/3, /*invoke=*/5, /*response=*/6,
        {{core::OpType::kWrite, 0, 7, kInitialTid}}}},
      /*final_values=*/{7, 0});
  const VerifyReport report = verify_execution(result);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(mentions(report, "tid 2 is invoked at 20, after tid 3 responded at 6"))
      << report.to_string();
}

// Contract (a) with nothing else wrong: two queries of x0's initial
// value, the smaller tid invoked after the larger responded. The history
// is m-sequentially consistent, so only the contract sees it, and
// run_audit gates it.
TEST(ExecVerifyTest, RealTimeInversionWithinAWindowIsRejected) {
  const ExecResult result = hand_built(
      /*objects=*/1,
      {{0, /*tid=*/1, /*invoke=*/10, /*response=*/11, {{core::OpType::kRead, 0, 0, kInitialTid}}},
       {1, /*tid=*/2, /*invoke=*/1, /*response=*/5, {{core::OpType::kRead, 0, 0, kInitialTid}}}},
      /*final_values=*/{0});
  const VerifyReport report = verify_execution(result);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(mentions(report, "tid order does not refine real time")) << report.to_string();
  VerifyOptions unchecked;
  unchecked.run_audit = false;
  EXPECT_TRUE(verify_execution(result, unchecked).ok);
}

// Contract (b): a reads-from edge backwards in tid. tid 1 claims the value
// tid 2 writes; the replay invariant rejects it, since at tid 1 the latest
// committed writer of x0 is still the initial write.
TEST(ExecVerifyTest, ReadFromALaterTidIsRejected) {
  const ExecResult result = hand_built(
      /*objects=*/1,
      {{0, /*tid=*/1, /*invoke=*/1, /*response=*/2, {{core::OpType::kRead, 0, 5, /*from_tid=*/2}}},
       {1, /*tid=*/2, /*invoke=*/3, /*response=*/4, {{core::OpType::kWrite, 0, 5, kInitialTid}}}},
      /*final_values=*/{5});
  const VerifyReport report = verify_execution(result);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(
      mentions(report, "read of object 0 from tid 2 but the latest committed writer is tid 0"))
      << report.to_string();
}

// An external read that names the latest committed writer but returns a
// value that writer never left.
TEST(ExecVerifyTest, ExternalReadOfTheRightWriterWithTheWrongValueIsRejected) {
  const ExecResult result = hand_built(
      /*objects=*/1,
      {{0, /*tid=*/1, /*invoke=*/1, /*response=*/2, {{core::OpType::kWrite, 0, 5, kInitialTid}}},
       {1, /*tid=*/2, /*invoke=*/3, /*response=*/4, {{core::OpType::kRead, 0, 6, /*from_tid=*/1}}}},
      /*final_values=*/{5});
  const VerifyReport report = verify_execution(result);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(
      mentions(report, "tid 2: read of object 0 from tid 1 returns 6 but that writer left 5"))
      << report.to_string();
}

// An internal read must return the m-operation's latest own write, not
// an earlier one.
TEST(ExecVerifyTest, InternalReadOfAStaleOwnWriteIsRejected) {
  const ExecResult result = hand_built(
      /*objects=*/1,
      {{0, /*tid=*/1, /*invoke=*/1, /*response=*/2,
        {{core::OpType::kWrite, 0, 5, kInitialTid},
         {core::OpType::kWrite, 0, 6, kInitialTid},
         {core::OpType::kRead, 0, 5, kOwnWriteTid}}}},
      /*final_values=*/{6});
  const VerifyReport report = verify_execution(result);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(mentions(report, "tid 1: read of object 0 returns 5 but its own latest write is 6"))
      << report.to_string();
}

// A read marked internal before the m-operation wrote the object hides
// an external read from the checks.
TEST(ExecVerifyTest, InternalReadWithNoEarlierOwnWriteIsRejected) {
  const ExecResult result = hand_built(
      /*objects=*/1,
      {{0, /*tid=*/1, /*invoke=*/1, /*response=*/2,
        {{core::OpType::kRead, 0, 3, kOwnWriteTid},
         {core::OpType::kWrite, 0, 3, kInitialTid}}}},
      /*final_values=*/{3});
  const VerifyReport report = verify_execution(result);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(mentions(report, "tid 1: read of object 0 is marked internal, but the m-operation "
                               "has not written it"))
      << report.to_string();
}

// A worker logs in commit order, so its tids ascend. One that does not
// leaves the merge out of tid order.
TEST(ExecVerifyTest, WorkerLogOutOfTidOrderIsRejected) {
  const ExecResult result = hand_built(
      /*objects=*/2,
      {{0, /*tid=*/2, /*invoke=*/1, /*response=*/2, {{core::OpType::kRead, 0, 0, kInitialTid}}},
       {0, /*tid=*/1, /*invoke=*/3, /*response=*/4, {{core::OpType::kRead, 1, 0, kInitialTid}}}},
      /*final_values=*/{0, 0});
  const VerifyReport report = verify_execution(result);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(mentions(report, "merged order not strictly ascending in tid at index 1"))
      << report.to_string();
}

// Tid 0 is the initial write's: a committed m-operation claiming it
// would make every read of the initial value name it.
TEST(ExecVerifyTest, CommittedTidOfTheInitialWriteIsRejected) {
  const ExecResult result = hand_built(
      /*objects=*/1,
      {{0, /*tid=*/kInitialTid, /*invoke=*/1, /*response=*/2,
        {{core::OpType::kRead, 0, 0, kInitialTid}}}},
      /*final_values=*/{0});
  const VerifyReport report = verify_execution(result);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(mentions(report, "merged order not strictly ascending in tid at index 0"))
      << report.to_string();
}

// One worker's m-operations never overlap, in tid order: here tid 2 is
// invoked before the same worker's tid 1 responded.
TEST(ExecVerifyTest, OverlappingMOperationsOfOneWorkerAreRejected) {
  const ExecResult result = hand_built(
      /*objects=*/1,
      {{0, /*tid=*/1, /*invoke=*/1, /*response=*/5, {{core::OpType::kRead, 0, 0, kInitialTid}}},
       {0, /*tid=*/2, /*invoke=*/3, /*response=*/6, {{core::OpType::kRead, 0, 0, kInitialTid}}}},
      /*final_values=*/{0});
  const VerifyReport report = verify_execution(result);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(mentions(report, "worker 0: tid 1 responds at 5, after tid 2 is invoked at 3"))
      << report.to_string();
}

// is_update decides whether an m-operation takes write locks; an update
// logged as a query is rejected.
TEST(ExecVerifyTest, UpdateFlaggedAsAQueryIsRejected) {
  ExecResult result = hand_built(
      /*objects=*/1,
      {{0, /*tid=*/1, /*invoke=*/1, /*response=*/2, {{core::OpType::kWrite, 0, 4, kInitialTid}}}},
      /*final_values=*/{4});
  ASSERT_TRUE(verify_execution(result).ok);
  result.logs[0][0].is_update = false;
  const VerifyReport report = verify_execution(result);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(mentions(report, "tid 1 writes but is flagged as a query")) << report.to_string();
}

// Every logged m-operation views its own worker's op buffer, in commit
// order, and no buffer outgrew the reservation the worker made before
// its thread started (growing would have moved it under earlier views).
TEST(ExecEngineTest, LoggedOpsLieInTheirWorkersReservedBuffer) {
  ExecConfig config = small_config();
  config.threads = 4;
  config.footprint = 4;
  config.query_ratio = 0.2;
  config.rmw_ratio = 0.8;  // mostly rmw sets: 2 x footprint ops each
  const ExecResult result = run(config);
  ASSERT_EQ(result.op_buffers.size(), result.logs.size());
  for (std::size_t w = 0; w < result.logs.size(); ++w) {
    const std::pmr::vector<LoggedOp>& buffer = result.op_buffers[w];
    EXPECT_LE(buffer.size(), config.mops_per_thread * 2 * config.footprint);
    const LoggedOp* next = buffer.data();
    for (const CommittedMop& mop : result.logs[w]) {
      ASSERT_FALSE(mop.ops.empty());
      EXPECT_EQ(mop.ops.data(), next);
      next += mop.ops.size();
    }
    EXPECT_EQ(next, buffer.data() + buffer.size());
  }
}

// A run's logs live in a block its ExecResult owns. Assigning a new
// result over an old one must release the old logs before the old block
// and keep the new logs in theirs (the sanitizer builds check the
// lifetimes).
TEST(ExecEngineTest, MoveAssignedResultKeepsItsLogs) {
  ExecConfig config = small_config();
  config.threads = 2;
  ExecResult result;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    config.seed = seed;
    result = run(config);
  }
  EXPECT_EQ(merge_logs(result).size(), result.stats.committed);
  EXPECT_TRUE(verify_execution(result).ok);
}

// Resident memory is read from /proc; the sanitizers replace malloc.
#if defined(__linux__) && !MOCC_EXEC_TEST_ASAN && !MOCC_EXEC_TEST_TSAN
#define MOCC_EXEC_TEST_RSS 1
std::size_t resident_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoul(line.substr(6));
  }
  return 0;
}
#else
#define MOCC_EXEC_TEST_RSS 0
#endif

// Back-to-back runs at perfbench's exec-verify shape must not ratchet
// resident memory up: nothing a run logs may stay behind in the worker
// threads' malloc arenas once its ExecResult is gone.
TEST(ExecEngineTest, RepeatedRunsDoNotGrowResidentMemory) {
#if !MOCC_EXEC_TEST_RSS
  GTEST_SKIP() << "needs /proc/self/status and the system malloc";
#else
  ExecConfig config;
  config.threads = 4;
  config.objects = 64;
  config.mops_per_thread = 25000 / config.threads;
  config.footprint = 4;
  config.query_ratio = 0.4;
  config.rmw_ratio = 0.5;
  config.zipf_skew = 0.9;
  std::size_t after_second_run = 0;
  for (std::uint64_t run_number = 1; run_number <= 40; ++run_number) {
    config.seed = run_number;
    const ExecResult result = run(config);
    ASSERT_EQ(merge_logs(result).size(), result.stats.committed);
    if (run_number == 2) after_second_run = resident_kib();
  }
  ASSERT_GT(after_second_run, 0u);
  EXPECT_LE(resident_kib(), after_second_run + 1024)
      << "VmRSS after run 2: " << after_second_run << " KiB";
#endif
}

TEST(ExecEngineTest, MaxAttemptsIsHonoredSingleThread) {
  ExecConfig config = small_config();
  config.max_attempts = 1;  // single thread never conflicts: all commit
  const ExecResult result = run(config);
  EXPECT_EQ(result.stats.committed, config.mops_per_thread);
  EXPECT_EQ(result.stats.abandoned, 0u);
}

// Checking a run costs no more wall time than producing it, at E10's
// low-contention shape (100k uniform m-operations over 4096 objects),
// with the full verdict on. A ratio of two times on the same machine, so
// it holds on slow hosts too; the median of three damps a descheduled
// repetition.
TEST(ExecVerifyGate, VerdictIsNoSlowerThanTheRun) {
#if !defined(__OPTIMIZE__) || MOCC_EXEC_TEST_ASAN || MOCC_EXEC_TEST_TSAN
  GTEST_SKIP() << "wall-time gate needs an optimized, uninstrumented build";
#endif
  ExecConfig config;
  config.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  config.objects = 4096;
  config.mops_per_thread = 100000 / config.threads;
  config.footprint = 4;
  config.query_ratio = 0.4;
  config.rmw_ratio = 0.5;
  config.seed = 42;
  using Clock = std::chrono::steady_clock;
  std::vector<double> run_s;
  std::vector<double> verify_s;
  for (int repetition = 0; repetition < 3; ++repetition) {
    const Clock::time_point t0 = Clock::now();
    const ExecResult result = run(config);
    const Clock::time_point t1 = Clock::now();
    const VerifyReport report = verify_execution(result);
    const Clock::time_point t2 = Clock::now();
    ASSERT_TRUE(report.ok) << report.to_string();
    ASSERT_EQ(report.mops, config.threads * config.mops_per_thread);
    run_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    verify_s.push_back(std::chrono::duration<double>(t2 - t1).count());
  }
  std::sort(run_s.begin(), run_s.end());
  std::sort(verify_s.begin(), verify_s.end());
  EXPECT_LE(verify_s[1], run_s[1]) << "median verify_execution " << verify_s[1]
                                   << " s, median exec::run " << run_s[1] << " s";
}

}  // namespace
}  // namespace mocc::exec
