#include "exec/verify.hpp"

#include <chrono>
#include <sstream>

namespace mocc::exec {

void VerifyReport::fail(std::string message) {
  ok = false;
  violations.push_back(std::move(message));
}

std::string VerifyReport::to_string() const {
  std::ostringstream out;
  out << (ok ? "OK" : "FAIL") << " (" << mops << " m-ops";
  if (!ok) out << ", " << violations.size() << " violations";
  out << ")";
  for (const std::string& v : violations) out << "\n  " << v;
  return out.str();
}

namespace {

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

/// Well-formedness in tid order: `mop` is invoked no later than it
/// responds, and no earlier than its worker's previous m-operation (the
/// one before it in tid order) responded. Ties pass, as in
/// core::History::well_formed.
void check_worker_order(const CommittedMop& mop, const CommittedMop* previous,
                        VerifyReport& report) {
  if (mop.invoke > mop.response) {
    report.fail("tid " + std::to_string(mop.tid) + " is invoked at " +
                std::to_string(mop.invoke) + ", after it responds at " +
                std::to_string(mop.response));
  }
  if (previous != nullptr && previous->response > mop.invoke) {
    report.fail("worker " + std::to_string(mop.worker) + ": tid " +
                std::to_string(previous->tid) + " responds at " +
                std::to_string(previous->response) + ", after tid " + std::to_string(mop.tid) +
                " is invoked at " + std::to_string(mop.invoke));
  }
}

/// The tid-order replay behind verify_execution and stream_execution:
/// the whole-log checks, then one step per m-operation in tid order,
/// after each of which `after_step(replayed, mop, report)` runs.
template <typename AfterStep>
VerifyReport replay(const ExecResult& result, const std::vector<const CommittedMop*>& merged,
                    const VerifyOptions& options, AfterStep&& after_step) {
  VerifyReport report;
  const std::size_t objects = result.config.objects;
  const std::size_t workers = result.config.threads;
  report.mops = merged.size();

  if (result.stats.committed != merged.size()) {
    report.fail("stats.committed (" + std::to_string(result.stats.committed) +
                ") != merged log size (" + std::to_string(merged.size()) + ")");
  }
  // Tids ascend strictly, from above the initial write's.
  std::uint64_t last = kInitialTid;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (merged[i]->tid <= last) {
      report.fail("merged order not strictly ascending in tid at index " +
                  std::to_string(i));
      return report;
    }
    last = merged[i]->tid;
  }

  if (options.run_audit) check_tid_order_refines_real_time(merged, report);

  // The replay: per object, the tid and value of its latest write in tid
  // order. An m-operation's writes land here as it goes, so an object it
  // has already written carries its own tid, which no other writer has.
  std::vector<std::uint64_t> last_tid(objects, kInitialTid);
  std::vector<core::Value> last_value(objects, result.config.initial_value);
  std::vector<const CommittedMop*> previous(workers, nullptr);
  std::size_t replayed = 0;
  for (const CommittedMop* mop : merged) {
    const auto where = [mop] { return "tid " + std::to_string(mop->tid); };
    if (mop->worker < workers) {
      check_worker_order(*mop, previous[mop->worker], report);
      previous[mop->worker] = mop;
    } else {
      report.fail(where() + ": worker " + std::to_string(mop->worker) + " of " +
                  std::to_string(workers));
    }
    bool writes = false;
    for (const LoggedOp& op : mop->ops) {
      const core::ObjectId x = op.object;
      if (x >= objects) {
        report.fail(where() + ": object " + std::to_string(x) + " of " +
                    std::to_string(objects));
        continue;
      }
      if (op.type == core::OpType::kWrite) {
        writes = true;
        last_tid[x] = mop->tid;
        last_value[x] = op.value;
        continue;
      }
      const auto read = [&] { return where() + ": read of object " + std::to_string(x); };
      const bool after_own_write = last_tid[x] == mop->tid;
      if (op.from_tid == kOwnWriteTid) {
        // Internal: served from the m-operation's latest own write of x.
        if (!after_own_write) {
          report.fail(read() + " is marked internal, but the m-operation has not written it");
        } else if (op.value != last_value[x]) {
          report.fail(read() + " returns " + std::to_string(op.value) +
                      " but its own latest write is " + std::to_string(last_value[x]));
        }
      } else if (after_own_write) {
        report.fail(read() + " names tid " + std::to_string(op.from_tid) +
                    " after the m-operation wrote it");
      } else if (op.from_tid != last_tid[x]) {
        // External: the OCC validation invariant names the latest
        // committed writer, and the read returns what it wrote last.
        report.fail(read() + " from tid " + std::to_string(op.from_tid) +
                    " but the latest committed writer is tid " + std::to_string(last_tid[x]));
      } else if (op.value != last_value[x]) {
        report.fail(read() + " from tid " + std::to_string(op.from_tid) + " returns " +
                    std::to_string(op.value) + " but that writer left " +
                    std::to_string(last_value[x]));
      }
    }
    if (writes != mop->is_update) {
      report.fail(where() + (writes ? " writes but is flagged as a query"
                                    : " writes nothing but is flagged as an update"));
    }
    after_step(++replayed, *mop, report);
  }

  for (std::size_t x = 0; x < objects; ++x) {
    if (x < result.final_values.size() && result.final_values[x] != last_value[x]) {
      report.fail("final value of object " + std::to_string(x) + " is " +
                  std::to_string(result.final_values[x]) +
                  " but the merged log replays to " + std::to_string(last_value[x]));
    }
  }
  return report;
}

}  // namespace

VerifyReport verify_execution(const ExecResult& result, const VerifyOptions& options) {
  return replay(result, merge_logs(result), options,
                [](std::size_t, const CommittedMop&, const VerifyReport&) {});
}

obs::StreamingReport stream_execution(const ExecResult& result,
                                      obs::TimeSeriesWriter* series, obs::Registry* registry,
                                      std::size_t sample_every, bool wallclock) {
  const std::vector<const CommittedMop*> merged = merge_logs(result);
  const bool sampling = series != nullptr && registry != nullptr && sample_every != 0;
  const auto stamp = [&](std::uint64_t logical) -> std::uint64_t {
    if (!wallclock) return logical;
    // Wallclock stamps are for live monitoring of the real-thread
    // engine only; they never enter a deterministic artifact.
    // mocc-lint: allow(determinism): live-monitoring wallclock stamps
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(now).count());
  };
  obs::StreamingReport stream;
  const auto publish = [&stream](std::size_t replayed, const VerifyReport& report) {
    stream.mops = replayed;
    stream.verdict = report.ok ? obs::StreamVerdict::kOk : obs::StreamVerdict::kViolation;
    stream.detail = report.ok ? std::string() : report.violations.front();
  };
  const VerifyReport report = replay(
      result, merged, VerifyOptions{},
      [&](std::size_t replayed, const CommittedMop& mop, const VerifyReport& so_far) {
        if (!sampling || replayed % sample_every != 0) return;
        publish(replayed, so_far);
        obs::export_metrics(stream, *registry);
        series->sample(*registry, stamp(mop.response));
      });
  publish(report.mops, report);
  if (sampling) {
    obs::export_metrics(stream, *registry);
    series->sample(*registry, stamp(merged.empty() ? 0 : merged.back()->response));
  }
  return stream;
}

}  // namespace mocc::exec
