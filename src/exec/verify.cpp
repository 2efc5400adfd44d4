#include "exec/verify.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "core/history.hpp"
#include "core/verdict.hpp"
#include "protocols/recorder.hpp"
#include "util/assert.hpp"
#include "util/timestamp.hpp"

namespace mocc::exec {

void VerifyReport::fail(std::string message) {
  ok = false;
  violations.push_back(std::move(message));
}

std::string VerifyReport::to_string() const {
  std::ostringstream out;
  out << (ok ? "OK" : "FAIL") << " (" << mops << " m-ops, " << windows
      << " windows";
  if (!ok) out << ", " << violations.size() << " violations";
  out << ")";
  for (const std::string& v : violations) out << "\n  " << v;
  return out.str();
}

namespace {

/// Replay state carried across windows: per object, the tid and value of
/// its latest committed writer.
struct ReplayState {
  std::vector<std::uint64_t> last_tid;
  std::vector<core::Value> last_value;

  ReplayState(std::size_t objects, core::Value initial_value)
      : last_tid(objects, kInitialTid), last_value(objects, initial_value) {}
};

/// Contract (a): tid order refines real time, so no m-operation responds
/// before an m-operation with a smaller tid is invoked. Walking the merged
/// order from the back, `earliest` is the first to respond among the
/// larger tids; reports the smallest tid invoked after such a response.
void check_tid_order_refines_real_time(const std::vector<const CommittedMop*>& merged,
                                       VerifyReport& report) {
  const CommittedMop* earliest = nullptr;
  const CommittedMop* late = nullptr;
  const CommittedMop* early = nullptr;
  for (auto it = merged.rbegin(); it != merged.rend(); ++it) {
    const CommittedMop* mop = *it;
    if (earliest != nullptr && earliest->response < mop->invoke) {
      late = mop;
      early = earliest;
    }
    if (earliest == nullptr || mop->response < earliest->response) earliest = mop;
  }
  if (late == nullptr) return;
  report.fail("tid " + std::to_string(late->tid) + " is invoked at " +
              std::to_string(late->invoke) + ", after tid " + std::to_string(early->tid) +
              " responded at " + std::to_string(early->response) +
              ": tid order does not refine real time");
}

/// tid → window-local MOpId for committed updates already replayed in
/// the current window (kept sorted; merged order is ascending tid).
class TidIndex {
 public:
  void add(std::uint64_t tid, core::MOpId id) { entries_.push_back({tid, id}); }
  const core::MOpId* find(std::uint64_t tid) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), tid,
        [](const Entry& e, std::uint64_t t) { return e.tid < t; });
    if (it == entries_.end() || it->tid != tid) return nullptr;
    return &it->id;
  }
  void clear() { entries_.clear(); }

 private:
  struct Entry {
    std::uint64_t tid;
    core::MOpId id;
  };
  std::vector<Entry> entries_;
};

}  // namespace

VerifyReport verify_execution(const ExecResult& result,
                              const VerifyOptions& options) {
  VerifyReport report;
  const std::size_t objects = result.config.objects;
  const auto workers = static_cast<core::ProcessId>(result.config.threads);
  const std::vector<const CommittedMop*> merged = merge_logs(result);
  report.mops = merged.size();

  if (result.stats.committed != merged.size()) {
    report.fail("stats.committed (" + std::to_string(result.stats.committed) +
                ") != merged log size (" + std::to_string(merged.size()) + ")");
  }
  for (std::size_t i = 1; i < merged.size(); ++i) {
    if (merged[i - 1]->tid >= merged[i]->tid) {
      report.fail("merged order not strictly ascending in tid at index " +
                  std::to_string(i));
      return report;
    }
  }

  if (options.run_audit) check_tid_order_refines_real_time(merged, report);

  ReplayState state(objects, result.config.initial_value);
  const std::size_t window = std::max<std::size_t>(options.window, 2);
  TidIndex index;

  for (std::size_t begin = 0; begin < merged.size(); begin += window) {
    const std::size_t end = std::min(begin + window, merged.size());
    const std::size_t window_number = report.windows++;
    auto where = [&](const CommittedMop& mop) {
      return "window " + std::to_string(window_number) + ", tid " +
             std::to_string(mop.tid);
    };

    // One extra process for the per-window snapshot writer.
    protocols::ExecutionRecorder recorder(workers + 1, objects);
    index.clear();
    core::MOpId snapshot_id = core::kInitialMOp;
    if (begin > 0) {
      snapshot_id = recorder.begin(workers, "snapshot", 0);
      std::vector<core::Operation> snapshot_ops;
      snapshot_ops.reserve(objects);
      for (std::size_t x = 0; x < objects; ++x) {
        snapshot_ops.push_back(core::Operation::write(
            static_cast<core::ObjectId>(x), state.last_value[x]));
      }
      recorder.complete(snapshot_id, std::move(snapshot_ops), 1, util::VersionVector(),
                        /*ww_seq=*/0);
    }

    for (std::size_t i = begin; i < end; ++i) {
      const CommittedMop& mop = *merged[i];
      // +2 clears the snapshot's stamps (0, 1); the engine's logical
      // clock preserves relative order, which is all real time needs.
      const core::MOpId id = recorder.begin(mop.worker, "", mop.invoke + 2);
      std::vector<core::Operation> ops;
      ops.reserve(mop.ops.size());
      for (const LoggedOp& op : mop.ops) {
        if (op.type == core::OpType::kWrite) {
          ops.push_back(core::Operation::write(op.object, op.value));
          continue;
        }
        if (op.from_tid == kOwnWriteTid) {
          // Internal read (own write precedes it in program order);
          // MOperation excludes it from external_reads, the target is
          // never consulted.
          ops.push_back(
              core::Operation::read(op.object, op.value, core::kInitialMOp));
          continue;
        }
        // The OCC validation invariant: an external read names the
        // latest committed writer of its object at the reader's
        // serialization point. This is the cross-window lost-update
        // detector — it compares against the replay state, not the
        // window-local history.
        if (op.from_tid != state.last_tid[op.object]) {
          report.fail(where(mop) + ": read of object " +
                      std::to_string(op.object) + " from tid " +
                      std::to_string(op.from_tid) +
                      " but the latest committed writer is tid " +
                      std::to_string(state.last_tid[op.object]));
        }
        const core::MOpId* target = index.find(op.from_tid);
        core::MOpId reads_from;
        if (target != nullptr) {
          reads_from = *target;
        } else if (begin > 0) {
          reads_from = snapshot_id;  // pre-window writer → snapshot
        } else {
          if (op.from_tid != kInitialTid) {
            report.fail(where(mop) + ": read from unknown tid " +
                        std::to_string(op.from_tid) + " in the first window");
          }
          reads_from = core::kInitialMOp;
        }
        ops.push_back(core::Operation::read(op.object, op.value, reads_from));
      }

      for (const LoggedOp& op : mop.ops) {
        if (op.type != core::OpType::kWrite) continue;
        state.last_tid[op.object] = mop.tid;
        state.last_value[op.object] = op.value;  // last write in PO wins
      }
      recorder.complete(
          id, std::move(ops), mop.response + 2, util::VersionVector(),
          mop.is_update ? std::optional<std::uint64_t>(mop.tid) : std::nullopt);
      if (mop.is_update) index.add(mop.tid, id);
    }

    // Every update carries its tid as its ww rank, so the fast check
    // decides every window holding an update. A window without one only
    // reads initial values, which value coherence already checked, so no
    // exact search is needed (budget 0).
    const core::History h = recorder.build_history();
    const core::Verdict verdict =
        core::check_history(h, core::Condition::kMLinearizability, recorder.ww_ranks(),
                            /*exact_budget=*/0, result.config.initial_value);
    if (!verdict.ok()) {
      report.fail("window " + std::to_string(window_number) + ": " + verdict.detail);
    }
  }

  for (std::size_t x = 0; x < objects; ++x) {
    if (x < result.final_values.size() &&
        result.final_values[x] != state.last_value[x]) {
      report.fail("final value of object " + std::to_string(x) + " is " +
                  std::to_string(result.final_values[x]) +
                  " but the merged log replays to " +
                  std::to_string(state.last_value[x]));
    }
  }
  return report;
}

obs::StreamingAuditorOptions stream_options(const ExecConfig& config) {
  obs::StreamingAuditorOptions options;
  options.condition = core::Condition::kMLinearizability;
  options.initial_value = config.initial_value;
  return options;
}

const obs::StreamingReport& stream_execution(const ExecResult& result,
                                             obs::StreamingAuditor& auditor,
                                             obs::TimeSeriesWriter* series,
                                             obs::Registry* registry,
                                             std::size_t sample_every,
                                             bool wallclock) {
  const std::vector<const CommittedMop*> merged = merge_logs(result);
  const bool sampling =
      series != nullptr && registry != nullptr && sample_every != 0;
  const auto stamp = [&](std::uint64_t logical) -> std::uint64_t {
    if (!wallclock) return logical;
    // Wallclock stamps are for live monitoring of the real-thread
    // engine only; they never enter a deterministic artifact.
    // mocc-lint: allow(determinism): live-monitoring wallclock stamps
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(now).count());
  };
  std::size_t fed = 0;
  for (const CommittedMop* mop : merged) {
    obs::StreamingAuditor::ObservedMop observed;
    observed.process = mop->worker;
    observed.key = mop->tid;
    observed.invoke = mop->invoke;
    observed.respond = mop->response;
    observed.is_update = mop->is_update;
    if (mop->is_update) observed.ww = mop->tid;
    observed.ops.reserve(mop->ops.size());
    for (const LoggedOp& op : mop->ops) {
      obs::StreamingAuditor::ObservedOp out;
      out.type = op.type;
      out.object = op.object;
      out.value = op.value;
      if (op.type == core::OpType::kRead) {
        if (op.from_tid == kOwnWriteTid) {
          out.internal = true;
        } else if (op.from_tid == kInitialTid) {
          out.writer = obs::StreamingAuditor::kInitialWriter;
        } else {
          out.writer = op.from_tid;
        }
      }
      observed.ops.push_back(out);
    }
    const std::uint64_t response = mop->response;
    auditor.observe(std::move(observed));
    ++fed;
    if (sampling && fed % sample_every == 0) {
      auditor.export_metrics(*registry);
      series->sample(*registry, stamp(response));
    }
  }
  const obs::StreamingReport& report = auditor.finish();
  if (sampling) {
    auditor.export_metrics(*registry);
    const std::uint64_t last =
        merged.empty() ? 0 : merged.back()->response;
    series->sample(*registry, stamp(last));
  }
  return report;
}

}  // namespace mocc::exec
