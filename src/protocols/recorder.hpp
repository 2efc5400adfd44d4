// Execution recording: turning protocol runs into checkable histories.
//
// Every protocol records each m-operation it completes: the operations
// performed (with reads-from at m-operation granularity), invocation and
// response virtual times, and — for the timestamp-based protocols of §5 —
// the version-vector timestamp ts(α) = ts(finish(α)) and the atomic
// broadcast position, so the paper's P5.x properties can be audited after
// the run (core/audit.hpp) and the history checked against the claimed
// consistency condition.
//
// Ids are assigned at invocation time (so in-flight updates can be named
// by replicas' last-writer tables before their origin records the
// response) and the history materializes ops in id order, which preserves
// per-process program order because drivers are closed-loop.
//
// Thread safety: a recorder is shared by every replica of one execution,
// and parallel drivers (sim::ParallelRunner) may in addition share one
// recorder across concurrently-simulated process groups, so all state is
// behind an internal mutex with Clang thread-safety annotations. Records
// live in a deque: begin() never relocates existing records, so the
// reference record() returns stays valid across concurrent begins (each
// record is written once by complete() and read only afterwards).
#pragma once

#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/audit.hpp"
#include "core/history.hpp"
#include "core/relations.hpp"
#include "util/thread_annotations.hpp"
#include "util/timestamp.hpp"

namespace mocc::protocols {

struct InvocationRecord {
  core::ProcessId process = 0;
  std::string label;
  core::Time invoke = 0;
  core::Time response = 0;
  std::vector<core::Operation> ops;
  /// ts(finish(α)) for timestamp-based protocols; empty otherwise.
  util::VersionVector timestamp;
  /// Position in the atomic broadcast total order (updates only).
  std::optional<std::uint64_t> ww_seq;
  bool completed = false;
};

class ExecutionRecorder {
 public:
  ExecutionRecorder(std::size_t num_processes, std::size_t num_objects);

  /// Reserves an id at invocation time.
  core::MOpId begin(core::ProcessId process, std::string label, core::Time invoke)
      MOCC_EXCLUDES(mu_);

  void complete(core::MOpId id, std::vector<core::Operation> ops, core::Time response,
                util::VersionVector timestamp,
                std::optional<std::uint64_t> ww_seq) MOCC_EXCLUDES(mu_);

  std::size_t size() const MOCC_EXCLUDES(mu_);
  /// m-operations completed so far. With size() it changes whenever the
  /// recorded execution does: api::System keys its verdict cache on both.
  std::size_t completed() const MOCC_EXCLUDES(mu_);
  bool all_completed() const MOCC_EXCLUDES(mu_);
  /// The returned reference is stable (deque) but its fields must not be
  /// read until the m-operation completed.
  const InvocationRecord& record(core::MOpId id) const MOCC_EXCLUDES(mu_);

  /// Builds the history of completed m-operations. Aborts if any
  /// invocation is still outstanding (drivers drain before building).
  core::History build_history() const MOCC_EXCLUDES(mu_);

  /// Builds the dense audit's trace (core::audit_protocol_execution, the
  /// test oracle). `include_process_order` selects the Figure-4
  /// definition of ~>H− (D5.3: ~P ∪ ~rf ∪ ~ww) versus Figure-6's
  /// (D5.8: ~rf ∪ ~t ∪ ~ww).
  core::ProtocolTrace build_trace(const core::History& h,
                                  bool include_process_order) const MOCC_EXCLUDES(mu_);

  /// Each m-operation's atomic broadcast position (nullopt for queries):
  /// the ~ww ranks a Theorem-7 check needs on top of the condition's
  /// base order.
  core::WwRanks ww_ranks() const MOCC_EXCLUDES(mu_);

  /// Each m-operation's ts(α), all zeros where the protocol records none:
  /// with ww_ranks(), what core::sparse_audit needs beside the history.
  /// The view reads the records themselves (no copies); it stays valid
  /// while the recorder lives.
  core::TimestampView timestamps() const MOCC_EXCLUDES(mu_);

 private:
  const std::size_t num_processes_;
  const std::size_t num_objects_;
  mutable std::mutex mu_;
  std::deque<InvocationRecord> records_ MOCC_GUARDED_BY(mu_);
  std::size_t completed_ MOCC_GUARDED_BY(mu_) = 0;
  /// What timestamps() shows for a record without one; sized on first use.
  mutable util::VersionVector zeros_ MOCC_GUARDED_BY(mu_);
};

}  // namespace mocc::protocols
