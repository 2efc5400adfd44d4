// Differential suite for exec::verify_execution, the one-pass replay that
// takes the commit-tid order as the witness, against the paper-literal
// oracle: the merged log built into one global core::History and judged
// by core::check_history (m-linearizability with the audit on,
// m-sequential consistency with it off), plus the contract checks the
// windowed verifier ran beside it — (a) tid order refines real time
// (audit on only), (c) every external read names the latest committed
// writer, and the final state. On the small runs the dense
// fast_check_condition decides too and must agree with the sparse check.
//
// The corpus is real engine runs over seeds × shapes (1–8 threads, 4–64
// objects, zipf 0 and 0.9, footprint 1–4, query and rmw ratios varied),
// each also corrupted eleven ways. Every engine run must pass both. The
// replay must reject every corruption the oracle rejects; where it
// rejects alone, the reason must be one of its engine-only checks
// (internal-read marking or value, the update flag, per-worker order).
// Generated workloads read every object before writing it, so they hold
// no internal read; exec_test's hand-built executions cover those checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory_resource>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/fast_check.hpp"
#include "core/history.hpp"
#include "core/verdict.hpp"
#include "exec/engine.hpp"
#include "exec/verify.hpp"
#include "util/rng.hpp"

// The sanitizer builds judge one seed per shape: their job here is the
// memory and race sweep, and the dense oracle runs slowly instrumented.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MOCC_DIFF_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MOCC_DIFF_TEST_SANITIZED 1
#endif
#endif
#ifndef MOCC_DIFF_TEST_SANITIZED
#define MOCC_DIFF_TEST_SANITIZED 0
#endif

namespace mocc::exec {
namespace {

/// A deep copy of `source` whose log entries view the copy's own op
/// buffers (ExecResult is move-only because a member-wise copy would
/// view the source's).
ExecResult clone(const ExecResult& source) {
  ExecResult copy;
  copy.config = source.config;
  copy.stats = source.stats;
  copy.final_values = source.final_values;
  copy.op_buffers.resize(source.op_buffers.size());
  copy.logs.resize(source.logs.size());
  for (std::size_t w = 0; w < source.logs.size(); ++w) {
    const std::pmr::vector<LoggedOp>& from = source.op_buffers[w];
    std::pmr::vector<LoggedOp>& to = copy.op_buffers[w];
    to.assign(from.begin(), from.end());
    for (const CommittedMop& mop : source.logs[w]) {
      CommittedMop entry = mop;
      const auto offset = static_cast<std::size_t>(mop.ops.data() - from.data());
      entry.ops = std::span<LoggedOp>(to).subspan(offset, mop.ops.size());
      copy.logs[w].push_back(entry);
    }
  }
  return copy;
}

struct OracleVerdict {
  bool ok = true;
  std::string why;
  void reject(const std::string& reason) {
    if (ok) why = reason;
    ok = false;
  }
};

/// The paper-literal verdict: the windowed verifier with one window and
/// no snapshot, `condition` by check_history and, when `dense`, by the
/// dense fast check as well (the two must agree).
OracleVerdict oracle(const ExecResult& result, bool run_audit, bool dense) {
  OracleVerdict verdict;
  std::vector<const CommittedMop*> merged;
  for (const auto& log : result.logs) {
    for (const CommittedMop& mop : log) merged.push_back(&mop);
  }
  std::sort(merged.begin(), merged.end(),
            [](const CommittedMop* a, const CommittedMop* b) { return a->tid < b->tid; });
  if (merged.size() != result.stats.committed) verdict.reject("committed count");
  for (std::size_t i = 1; i < merged.size(); ++i) {
    if (merged[i - 1]->tid == merged[i]->tid) {
      verdict.reject("duplicate tid");
      return verdict;
    }
  }
  if (run_audit) {
    // (a), pairwise: a smaller tid invoked after a larger one responded.
    std::uint64_t earliest_later_response = ~std::uint64_t{0};
    for (auto it = merged.rbegin(); it != merged.rend(); ++it) {
      if (earliest_later_response < (*it)->invoke) verdict.reject("(a) real time");
      earliest_later_response = std::min(earliest_later_response, (*it)->response);
    }
  }

  // History::add and MOperation abort on a malformed process subhistory,
  // so the oracle decides well-formedness (§2.2) before building one.
  const std::size_t workers = result.config.threads;
  const std::size_t objects = result.config.objects;
  std::vector<const CommittedMop*> previous(workers, nullptr);
  for (const CommittedMop* mop : merged) {
    if (mop->worker >= workers || mop->invoke > mop->response ||
        (previous[mop->worker] != nullptr && previous[mop->worker]->response > mop->invoke)) {
      verdict.reject("not well-formed");
      return verdict;
    }
    previous[mop->worker] = mop;
  }

  std::map<std::uint64_t, core::MOpId> id_of;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    id_of[merged[i]->tid] = static_cast<core::MOpId>(i);
  }
  core::History history(workers, objects);
  core::WwRanks ranks;
  std::vector<std::uint64_t> last_tid(objects, kInitialTid);
  std::vector<core::Value> last_value(objects, result.config.initial_value);
  for (const CommittedMop* mop : merged) {
    std::vector<core::Operation> ops;
    for (const LoggedOp& op : mop->ops) {
      if (op.type == core::OpType::kWrite) {
        ops.push_back(core::Operation::write(op.object, op.value));
        continue;
      }
      if (op.from_tid == kOwnWriteTid) {
        // MOperation decides internal reads by position; the target of
        // one is never consulted.
        ops.push_back(core::Operation::read(op.object, op.value, core::kInitialMOp));
        continue;
      }
      if (op.from_tid != last_tid[op.object]) verdict.reject("(c) latest writer");
      core::MOpId target = core::kInitialMOp;
      if (op.from_tid != kInitialTid) {
        const auto found = id_of.find(op.from_tid);
        if (found == id_of.end()) {
          verdict.reject("read from an unknown tid");
        } else {
          target = found->second;
        }
      }
      ops.push_back(core::Operation::read(op.object, op.value, target));
    }
    for (const LoggedOp& op : mop->ops) {
      if (op.type != core::OpType::kWrite) continue;
      last_tid[op.object] = mop->tid;
      last_value[op.object] = op.value;
    }
    history.add(core::MOperation(mop->worker, std::move(ops), mop->invoke, mop->response));
    ranks.push_back(mop->is_update ? std::optional<std::uint64_t>(mop->tid) : std::nullopt);
  }
  for (std::size_t x = 0; x < objects && x < result.final_values.size(); ++x) {
    if (result.final_values[x] != last_value[x]) verdict.reject("final state");
  }

  const core::Condition condition = run_audit ? core::Condition::kMLinearizability
                                              : core::Condition::kMSequentialConsistency;
  const core::Verdict checked = core::check_history(history, condition, ranks,
                                                    /*exact_budget=*/0,
                                                    result.config.initial_value);
  if (dense) {
    bool dense_ok =
        history.well_formed() && history.value_coherent(nullptr, result.config.initial_value);
    if (dense_ok) {
      dense_ok = core::fast_check_condition(history, condition, ranks, core::Constraint::kWW)
                     .admissible;
    }
    EXPECT_EQ(dense_ok, checked.ok()) << checked.detail;
  }
  if (!checked.ok()) verdict.reject(checked.detail);
  return verdict;
}

/// The replay's checks that see what the engine logs beyond the history:
/// how a read is marked, the update flag, and each worker's order.
bool engine_only(const std::string& violation) {
  static constexpr std::array<const char*, 6> kReasons = {
      "is marked internal", "its own latest write", "after the m-operation wrote it",
      "flagged as",         "after it responds at", "not strictly ascending"};
  return violation.rfind("worker ", 0) == 0 ||
         std::any_of(kReasons.begin(), kReasons.end(), [&violation](const char* reason) {
           return violation.find(reason) != std::string::npos;
         });
}

enum class Corruption {
  kFromOlderWriter,
  kFromInit,
  kFromLaterTid,
  kBumpReadValue,
  kBumpWrittenValue,
  kSwapWorkerTids,
  kInvokeBeforeEarlierResponse,
  kInvertRealTime,
  kOverlapWorker,
  kExternalMarkedInternal,
  kFlipUpdate,
};

constexpr std::array<Corruption, 11> kCorruptions = {
    Corruption::kFromOlderWriter,
    Corruption::kFromInit,
    Corruption::kFromLaterTid,
    Corruption::kBumpReadValue,
    Corruption::kBumpWrittenValue,
    Corruption::kSwapWorkerTids,
    Corruption::kInvokeBeforeEarlierResponse,
    Corruption::kInvertRealTime,
    Corruption::kOverlapWorker,
    Corruption::kExternalMarkedInternal,
    Corruption::kFlipUpdate,
};

const char* name(Corruption c) {
  switch (c) {
    case Corruption::kFromOlderWriter: return "from-older-writer";
    case Corruption::kFromInit: return "from-init";
    case Corruption::kFromLaterTid: return "from-later-tid";
    case Corruption::kBumpReadValue: return "bump-read-value";
    case Corruption::kBumpWrittenValue: return "bump-written-value";
    case Corruption::kSwapWorkerTids: return "swap-worker-tids";
    case Corruption::kInvokeBeforeEarlierResponse: return "invoke-before-earlier-response";
    case Corruption::kInvertRealTime: return "invert-real-time";
    case Corruption::kOverlapWorker: return "overlap-worker";
    case Corruption::kExternalMarkedInternal: return "external-marked-internal";
    case Corruption::kFlipUpdate: return "flip-update";
  }
  return "?";
}

/// Mutable views of a run's log, in tid order.
std::vector<CommittedMop*> tid_order(ExecResult& result) {
  std::vector<CommittedMop*> mops;
  for (auto& log : result.logs) {
    for (CommittedMop& mop : log) mops.push_back(&mop);
  }
  std::sort(mops.begin(), mops.end(),
            [](const CommittedMop* a, const CommittedMop* b) { return a->tid < b->tid; });
  return mops;
}

template <typename T>
T* pick(std::vector<T*>& candidates, util::Rng& rng) {
  if (candidates.empty()) return nullptr;
  return candidates[rng.next_below(candidates.size())];
}

/// Applies `c` to `result` in place; false when the run offers no spot
/// for it (say, no external read of a written object).
bool corrupt(ExecResult& result, Corruption c, util::Rng& rng) {
  const std::vector<CommittedMop*> mops = tid_order(result);
  // Per object, its writers' tids in tid order, the initial write first.
  std::vector<std::vector<std::uint64_t>> writers(result.config.objects,
                                                  std::vector<std::uint64_t>{kInitialTid});
  for (const CommittedMop* mop : mops) {
    for (const LoggedOp& op : mop->ops) {
      if (op.type == core::OpType::kWrite && writers[op.object].back() != mop->tid) {
        writers[op.object].push_back(mop->tid);
      }
    }
  }
  struct Read {
    CommittedMop* mop;
    LoggedOp* op;
  };
  std::vector<Read> reads;
  std::vector<LoggedOp*> writes;
  for (CommittedMop* mop : mops) {
    for (LoggedOp& op : mop->ops) {
      if (op.type == core::OpType::kWrite) {
        writes.push_back(&op);
      } else if (op.from_tid != kOwnWriteTid) {
        reads.push_back({mop, &op});
      }
    }
  }
  const auto pick_read = [&](auto&& usable) -> LoggedOp* {
    std::vector<LoggedOp*> candidates;
    for (const Read& read : reads) {
      if (usable(read)) candidates.push_back(read.op);
    }
    return pick(candidates, rng);
  };
  const auto writer_index = [&](const LoggedOp& op) {
    const std::vector<std::uint64_t>& w = writers[op.object];
    return static_cast<std::size_t>(std::find(w.begin(), w.end(), op.from_tid) - w.begin());
  };

  switch (c) {
    case Corruption::kFromOlderWriter: {
      LoggedOp* op = pick_read([&](const Read& r) {
        const std::size_t k = writer_index(*r.op);
        return k >= 2 && k < writers[r.op->object].size();
      });
      if (op == nullptr) return false;
      op->from_tid = writers[op->object][writer_index(*op) - 1];
      return true;
    }
    case Corruption::kFromInit: {
      LoggedOp* op = pick_read([](const Read& r) { return r.op->from_tid != kInitialTid; });
      if (op == nullptr) return false;
      op->from_tid = kInitialTid;
      return true;
    }
    case Corruption::kFromLaterTid: {
      // The object's first writer after the reader.
      std::vector<Read> candidates;
      for (const Read& r : reads) {
        if (writers[r.op->object].back() > r.mop->tid) candidates.push_back(r);
      }
      if (candidates.empty()) return false;
      const Read& r = candidates[rng.next_below(candidates.size())];
      const std::vector<std::uint64_t>& w = writers[r.op->object];
      r.op->from_tid = *std::upper_bound(w.begin(), w.end(), r.mop->tid);
      return true;
    }
    case Corruption::kBumpReadValue: {
      LoggedOp* op = pick_read([](const Read&) { return true; });
      if (op == nullptr) return false;
      op->value += 1;
      return true;
    }
    case Corruption::kBumpWrittenValue: {
      LoggedOp* op = pick(writes, rng);
      if (op == nullptr) return false;
      op->value += 1;
      return true;
    }
    case Corruption::kSwapWorkerTids: {
      if (result.logs.size() < 2) return false;
      CommittedMop* a = mops[rng.next_below(mops.size())];
      std::vector<CommittedMop*> others;
      for (CommittedMop* mop : mops) {
        if (mop->worker != a->worker) others.push_back(mop);
      }
      CommittedMop* b = pick(others, rng);
      if (b == nullptr) return false;
      std::swap(a->tid, b->tid);
      return true;
    }
    case Corruption::kInvokeBeforeEarlierResponse: {
      // Some m-operation is invoked just before its tid predecessor
      // responds: harmless unless that predecessor is on its own worker.
      std::vector<CommittedMop*> candidates;
      for (std::size_t i = 1; i < mops.size(); ++i) {
        if (mops[i - 1]->response >= 1 && mops[i - 1]->response - 1 < mops[i]->invoke) {
          candidates.push_back(mops[i]);
        }
      }
      CommittedMop* mop = pick(candidates, rng);
      if (mop == nullptr) return false;
      const auto at = std::find(mops.begin(), mops.end(), mop);
      mop->invoke = (*(at - 1))->response - 1;
      return true;
    }
    case Corruption::kInvertRealTime: {
      // A worker's last m-operation, if it is not the last in tid order,
      // moves after every response: a smaller tid invoked after larger
      // ones responded, with each worker still well-formed.
      std::vector<CommittedMop*> candidates;
      for (auto& log : result.logs) {
        if (!log.empty() && log.back().tid != mops.back()->tid) candidates.push_back(&log.back());
      }
      CommittedMop* mop = pick(candidates, rng);
      if (mop == nullptr) return false;
      std::uint64_t last = 0;
      for (const CommittedMop* other : mops) last = std::max(last, other->response);
      mop->invoke = last + 1;
      mop->response = last + 2;
      return true;
    }
    case Corruption::kOverlapWorker: {
      // A worker's m-operation responds after its successor is invoked.
      std::vector<CommittedMop*> candidates;
      for (auto& log : result.logs) {
        for (std::size_t i = 0; i + 1 < log.size(); ++i) candidates.push_back(&log[i]);
      }
      CommittedMop* mop = pick(candidates, rng);
      if (mop == nullptr) return false;
      mop->response = (mop + 1)->invoke + 1;
      return true;
    }
    case Corruption::kExternalMarkedInternal: {
      LoggedOp* op = pick_read([](const Read&) { return true; });
      if (op == nullptr) return false;
      op->from_tid = kOwnWriteTid;
      return true;
    }
    case Corruption::kFlipUpdate: {
      CommittedMop* mop = mops[rng.next_below(mops.size())];
      mop->is_update = !mop->is_update;
      return true;
    }
  }
  return false;
}

struct Shape {
  std::size_t threads;
  std::size_t objects;
  double zipf;
  std::size_t footprint;
  double query_ratio;
  double rmw_ratio;
  std::size_t mops_per_thread;
};

constexpr std::array<Shape, 12> kShapes = {{
    {1, 4, 0.0, 1, 0.5, 0.5, 120},
    {1, 16, 0.9, 4, 0.2, 0.8, 120},
    {2, 4, 0.9, 2, 0.4, 0.5, 80},
    {2, 64, 0.0, 3, 0.6, 0.2, 80},
    {3, 8, 0.9, 4, 0.0, 1.0, 60},
    {4, 4, 0.0, 1, 0.3, 1.0, 50},
    {4, 32, 0.9, 4, 0.4, 0.5, 50},
    {6, 16, 0.0, 2, 0.5, 0.0, 30},
    {8, 8, 0.9, 3, 0.4, 0.5, 30},
    {8, 64, 0.9, 4, 0.1, 0.7, 30},
    {4, 64, 0.9, 4, 0.4, 0.5, 250},
    {8, 16, 0.0, 2, 0.3, 0.5, 100},
}};

/// Runs at or below this many m-operations are also judged densely.
constexpr std::size_t kDenseLimit = 250;
constexpr std::uint64_t kSeeds = MOCC_DIFF_TEST_SANITIZED ? 1 : 4;

struct Tally {
  std::size_t both_reject = 0;
  std::size_t both_accept = 0;
  std::size_t replay_alone = 0;
  std::size_t oracle_alone = 0;
  std::size_t skipped = 0;
};

TEST(ExecVerifyDifferential, EngineRunsAndTheirCorruptions) {
  std::map<std::string, Tally> tallies;
  std::size_t runs = 0;
  std::size_t dense_runs = 0;
  for (const Shape& shape : kShapes) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      ExecConfig config;
      config.threads = shape.threads;
      config.objects = shape.objects;
      config.zipf_skew = shape.zipf;
      config.footprint = shape.footprint;
      config.query_ratio = shape.query_ratio;
      config.rmw_ratio = shape.rmw_ratio;
      config.mops_per_thread = shape.mops_per_thread;
      config.seed = seed * 1000 + shape.threads * 100 + shape.objects;
      const ExecResult clean = run(config);
      const bool dense = clean.stats.committed <= kDenseLimit;
      ++runs;
      dense_runs += dense ? 1 : 0;
      for (const bool audit : {true, false}) {
        SCOPED_TRACE("threads " + std::to_string(shape.threads) + ", objects " +
                     std::to_string(shape.objects) + ", seed " + std::to_string(config.seed) +
                     (audit ? ", audit on" : ", audit off"));
        VerifyOptions options;
        options.run_audit = audit;
        const VerifyReport replayed = verify_execution(clean, options);
        EXPECT_TRUE(replayed.ok) << replayed.to_string();
        const OracleVerdict judged = oracle(clean, audit, dense);
        EXPECT_TRUE(judged.ok) << judged.why;

        util::Rng rng(config.seed * 31 + (audit ? 1 : 0));
        for (const Corruption c : kCorruptions) {
          SCOPED_TRACE(name(c));
          ExecResult corrupted = clone(clean);
          Tally& tally = tallies[name(c)];
          if (!corrupt(corrupted, c, rng)) {
            ++tally.skipped;
            continue;
          }
          const VerifyReport replay = verify_execution(corrupted, options);
          const OracleVerdict paper = oracle(corrupted, audit, dense);
          if (!paper.ok && !replay.ok) {
            ++tally.both_reject;
          } else if (paper.ok && replay.ok) {
            ++tally.both_accept;
          } else if (!paper.ok) {
            ++tally.oracle_alone;
            ADD_FAILURE() << "the replay accepts what the oracle rejects: " << paper.why;
          } else {
            ++tally.replay_alone;
            EXPECT_TRUE(std::any_of(replay.violations.begin(), replay.violations.end(),
                                    engine_only))
                << "the replay alone rejects, for a reason the history shows: "
                << replay.to_string();
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, kShapes.size() * kSeeds);
  EXPECT_GT(dense_runs, 0u);
  EXPECT_LT(dense_runs, runs);
  std::size_t rejected = 0;
  for (const auto& [corruption, tally] : tallies) {
    std::cout << corruption << ": both reject " << tally.both_reject << ", both accept "
              << tally.both_accept << ", replay alone " << tally.replay_alone
              << ", oracle alone " << tally.oracle_alone << ", no spot " << tally.skipped
              << "\n";
    rejected += tally.both_reject;
  }
  // The corpus must actually exercise the rejections it claims to test.
  EXPECT_GT(rejected, runs * 10);
  for (const char* always : {"from-init", "bump-read-value", "overlap-worker"}) {
    EXPECT_GT(tallies[always].both_reject, 0u) << always;
  }
}

}  // namespace
}  // namespace mocc::exec
