// Shared-memory multicore execution engine (`mocc_exec`).
//
// Worker threads execute multi-object m-operations (read / write / rmw
// sets over one ObjectStore) and commit them with an OCC protocol in the
// Silo/MOCC family (per-object version words, read-set validation,
// epoch-advancing global commit counter):
//
//   1. execute: reads take seqlock snapshots (value + writer tid) into
//      the read set; writes are buffered in the write set (reads of
//      own-written objects are served from the buffer);
//   2. lock: write-set objects are CAS-locked in canonical ascending
//      object order (deadlock-free; a bounded spin then abort+backoff
//      bounds convoying);
//   3. serialize: a commit tid is drawn from the global counter — after
//      the locks, before validation, so any conflicting writer with a
//      smaller tid either already published (validation sees the version
//      change) or still holds its lock (validation sees the lock bit);
//   4. validate: every read-set entry must still carry the observed
//      writer tid and be unlocked (write-set members: the lock must have
//      been acquired over exactly the observed version);
//   5. publish: write-set values are stored and the version words
//      release-stored with the new tid (which is also the unlock).
//
// Validation failure releases the locks untouched and re-executes the
// m-operation from scratch. Each committed m-operation is appended to a
// thread-local log: (worker, invoke/response logical-clock stamps,
// operations with reads-from tids, commit tid). The operations go into
// a per-worker op buffer reserved before the thread starts, and the log
// entry views its slice, so a worker allocates nothing per commit
// (DESIGN.md §12, docs/exec-engine.md). After the run the logs
// merge deterministically into tid order — equivalently (epoch, tid),
// epoch = tid >> kEpochShift, the global counter advances it every
// 2^kEpochShift draws — and verification replays that order once as the
// witness of m-linearizability (verify.hpp).
//
// The invoke/response stamps come from a second global counter (the
// logical clock), drawn before the first read and after the last
// publish, so the recorded real-time order is genuine: two m-operations
// overlap in the history iff their executions overlapped. Commit-tid
// order refines that real-time order (a response stamp is drawn after
// its tid, an invoke stamp before), which is what makes the merged
// history m-linearizable, not merely m-sequentially consistent. That
// refinement, forward reads-from edges, and reads of the latest
// committed writer are the engine's contract, which verification checks
// in linear time (verify.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <span>
#include <string>
#include <vector>

#include "core/moperation.hpp"
#include "core/types.hpp"
#include "exec/store.hpp"
#include "obs/trace.hpp"

namespace mocc::exec {

/// Commits per epoch: the global counter advances the epoch every
/// 2^kEpochShift tid draws. Epochs give logs a coarse lifetime
/// structure; (epoch, tid) and tid induce the same total order.
inline constexpr unsigned kEpochShift = 12;

constexpr std::uint64_t epoch_of(std::uint64_t tid) { return tid >> kEpochShift; }

struct ExecConfig {
  std::size_t threads = 4;
  std::size_t objects = 1024;
  /// Committed m-operations each worker must produce (aborts retry).
  std::size_t mops_per_thread = 1000;
  /// Objects touched per m-operation (clamped to `objects`).
  std::size_t footprint = 4;
  /// Probability that an m-operation is a read-only query.
  double query_ratio = 0.5;
  /// Among updates: probability the m-operation is an rmw set (read every
  /// footprint object, then write back value+1) instead of a read/write
  /// mix (read half the footprint, blind-write the other half).
  double rmw_ratio = 0.5;
  /// Zipf skew over object choice (0 = uniform). The contention knob:
  /// high skew concentrates write sets on a few hot objects.
  double zipf_skew = 0.0;
  std::uint64_t seed = 1;
  /// Give up on an m-operation after this many attempts (0 = retry until
  /// it commits; abandoned m-operations are counted, not logged).
  std::size_t max_attempts = 0;
  /// Initial value of every object.
  core::Value initial_value = 0;
};

/// One read or write inside a committed m-operation, in program order.
struct LoggedOp {
  core::OpType type = core::OpType::kRead;
  core::ObjectId object = 0;
  core::Value value = 0;
  /// Reads: commit tid of the writer whose value was observed
  /// (kInitialTid for the initializing write, kOwnWriteTid when the read
  /// was served from this m-operation's own write buffer). Unused for
  /// writes.
  std::uint64_t from_tid = kInitialTid;
};

/// Reads satisfied from the m-operation's own write set (internal reads
/// in the paper's sense — they constrain nothing across m-operations).
inline constexpr std::uint64_t kOwnWriteTid = ~std::uint64_t{0};

/// One committed m-operation as logged by its worker.
struct CommittedMop {
  std::uint32_t worker = 0;
  std::uint64_t tid = 0;       ///< global commit tid (serialization point)
  std::uint64_t invoke = 0;    ///< logical-clock stamp before the first read
  std::uint64_t response = 0;  ///< logical-clock stamp after publication
  std::uint32_t attempts = 1;  ///< 1 = committed first try
  bool is_update = false;
  /// Its operations in program order: a slice of the worker's op buffer
  /// (ExecResult::op_buffers), valid as long as that ExecResult.
  std::span<LoggedOp> ops;
};

struct ExecStats {
  std::uint64_t committed = 0;
  std::uint64_t aborted_validation = 0;  ///< read-set validation failures
  std::uint64_t aborted_lock = 0;        ///< write-lock spin budget exhausted
  std::uint64_t abandoned = 0;           ///< m-ops dropped at max_attempts
  /// Wall-clock seconds between starting the workers and the last join.
  /// The ONLY non-deterministic field; it never feeds a golden artifact
  /// (bench smoke records zero the derived throughput gauge).
  double elapsed_seconds = 0.0;

  std::uint64_t mops_per_sec() const;
};

/// Move-only: the log entries view `op_buffers`, and a copy would view
/// the source's buffers. Moving keeps every buffer's storage in place.
struct ExecResult {
  ExecResult() = default;
  ExecResult(ExecResult&&) = default;
  /// Member-wise in declaration order, so the old logs and buffers are
  /// released before `log_memory`, the block they live in.
  ExecResult& operator=(ExecResult&&) = default;
  ExecResult(const ExecResult&) = delete;
  ExecResult& operator=(const ExecResult&) = delete;
  /// Releases the logs and buffers before the block they live in.
  ~ExecResult() {
    logs.clear();
    op_buffers.clear();
  }

  ExecConfig config;
  ExecStats stats;
  /// Thread-local commit logs, one per worker, in local commit order
  /// (ascending tid within each log).
  std::vector<std::pmr::vector<CommittedMop>> logs;
  /// The logged operations, one buffer per worker: `logs[w][i].ops` is
  /// a slice of `op_buffers[w]`. Each buffer is reserved for the worker's
  /// largest possible output before its thread starts and never grows
  /// past that reservation, so the slices never dangle.
  std::vector<std::pmr::vector<LoggedOp>> op_buffers;
  /// Committed value of every object after the run (the store's final
  /// state; verify.cpp cross-checks it against the merged log replay).
  std::vector<core::Value> final_values;
  /// The block exec::run carves every log and op buffer from (null for
  /// an ExecResult built by hand, whose vectors use the default heap).
  std::unique_ptr<std::pmr::monotonic_buffer_resource> log_memory;
};

/// Runs the workload: `threads` real threads against one shared store.
/// When `sink` is non-null every commit/abort emits an exec_commit /
/// exec_abort trace event (null sink = one pointer test per event site,
/// same overhead policy as the simulator's instrumentation).
ExecResult run(const ExecConfig& config, obs::TraceSink* sink = nullptr);

/// Deterministic merge: pointers into `result.logs` in tid order, which
/// is also (epoch, tid) order. A k-way merge of the logs, each of which
/// exec::run produces ascending in tid: a log out of tid order comes out
/// unsorted, and verify_execution rejects it ("not strictly
/// ascending"). A pure function of the logs.
std::vector<const CommittedMop*> merge_logs(const ExecResult& result);

}  // namespace mocc::exec
