// Baseline: conservative two-phase locking over partitioned objects.
//
// What a practitioner of the paper's era would deploy instead of the §5
// protocols: every object has a home node (x mod n); an m-operation
// acquires locks on its declared footprint in ascending object order
// (deadlock-free by global resource ordering), shared for read-only
// objects and exclusive for potentially-written ones; then it snapshots
// its read set from the homes, executes locally, pushes writes back, and
// releases. Strict 2PL + atomic footprint locking makes every execution
// m-linearizable (checked by tests with the exact checker) — but the
// latency grows with the footprint size (one sequential round trip per
// lock) where the §5 protocols pay a single atomic broadcast, and
// conflicting m-operations queue behind each other at the homes.
//
// Each update declares its ~ww rank where the §5 protocols declare their
// abcast position (the recorder's ww_seq and the root `mop` span):
// lock_point × num_nodes + process, where lock_point is the virtual time
// at which its client was granted its last lock. Under strict 2PL the
// lock-point order is a serialization order (Bernstein, Hadzilacos &
// Goodman 1987, ch. 3). Every remote delivery takes at least one tick and
// a process invokes at least one tick after its last response, so lock
// points strictly increase along process order, reads-from, real time
// and every conflicting pair; only unrelated m-operations tie, and the
// process breaks the tie. Every verdict on these histories is therefore
// Theorem 7's polynomial check (DESIGN.md §7).
//
// The same replica also implements the *aggregate object* strawman from
// the paper's introduction ("this technique will force all registers to
// be treated as one object; this results in loss of locality and
// concurrency"): in aggregate mode every m-operation locks one global
// exclusive lock instead of its footprint, serializing all operations.
#pragma once

#include <map>
#include <optional>
#include <set>

#include "protocols/replica.hpp"

namespace mocc::protocols {

class LockingReplica final : public Replica {
 public:
  // Three request/response round trips (declared as pairs in
  // sim/wire_kinds.hpp kKindPairs; mocc-lint's msg-flow closure check
  // keeps every kind here both emitted and routed by a handler below).
  static constexpr std::uint32_t kLockReq = sim::wire::protocols_kind(10);
  static constexpr std::uint32_t kLockGrant = sim::wire::protocols_kind(11);
  static constexpr std::uint32_t kReadReq = sim::wire::protocols_kind(12);
  static constexpr std::uint32_t kReadResp = sim::wire::protocols_kind(13);
  static constexpr std::uint32_t kCommitReq = sim::wire::protocols_kind(14);
  static constexpr std::uint32_t kCommitAck = sim::wire::protocols_kind(15);

  struct Options {
    /// Aggregate-object strawman: one global exclusive lock for every
    /// m-operation.
    bool aggregate = false;
    /// Deliberate protocol mutation for mocc-check validation (never set
    /// in production): release locks in a commit message SEPARATE from
    /// (and sent before) the one carrying the writes, so a competitor can
    /// acquire the lock and read the home copy before the write lands.
    bool mutate_early_release = false;
  };

  LockingReplica(std::size_t num_objects, std::size_t num_nodes,
                 ExecutionRecorder& recorder, Options options);
  LockingReplica(std::size_t num_objects, std::size_t num_nodes,
                 ExecutionRecorder& recorder)
      : LockingReplica(num_objects, num_nodes, recorder, Options()) {}

  void invoke(sim::Context& ctx, mscript::Program program,
              ResponseFn on_response) override;

 protected:
  void handle_delivered(sim::Context& ctx, const sim::Message& message) override;

 private:
  // ---- lock identifiers: real objects plus one virtual aggregate lock.
  using LockId = std::uint32_t;
  LockId aggregate_lock() const { return static_cast<LockId>(num_objects_); }
  sim::NodeId home_of_lock(LockId lock) const {
    return static_cast<sim::NodeId>(lock % num_nodes_);
  }
  sim::NodeId home_of_object(core::ObjectId x) const {
    return static_cast<sim::NodeId>(x % num_nodes_);
  }

  // ---- home (server) side ------------------------------------------
  struct LockState {
    std::size_t shared_holders = 0;
    bool exclusive_held = false;
    struct Waiter {
      sim::NodeId client;
      std::uint64_t token;
      bool exclusive;
      obs::SpanContext trace;      ///< context that carried the request
      sim::SimTime enqueued = 0;  ///< lock_wait span begin
    };
    std::vector<Waiter> queue;  // strict FIFO, no barging
  };
  void handle_lock_req(sim::Context& ctx, sim::NodeId from, std::uint64_t token,
                       LockId lock, bool exclusive);
  void handle_read_req(sim::Context& ctx, sim::NodeId from, std::uint64_t token,
                       const std::vector<std::uint32_t>& objects);
  void handle_commit_req(sim::Context& ctx, sim::NodeId from, std::uint64_t token,
                         const std::vector<std::uint32_t>& write_objects,
                         const std::vector<core::Value>& write_values,
                         const std::vector<std::uint32_t>& unlock_shared,
                         const std::vector<std::uint32_t>& unlock_exclusive);
  void pump_lock_queue(sim::Context& ctx, LockId lock);
  void grant(sim::Context& ctx, sim::NodeId client, std::uint64_t token, LockId lock);

  // ---- client side --------------------------------------------------
  enum class Phase { kAcquiring, kReading, kCommitting };
  struct PendingOp {
    core::MOpId id = 0;
    mscript::Program program;
    ResponseFn on_response;
    core::Time invoke = 0;
    obs::SpanContext trace;  ///< root span of the m-operation's trace
    Phase phase = Phase::kAcquiring;
    // Locks in ascending order; mode per lock.
    std::vector<LockId> locks;
    std::set<LockId> exclusive_locks;
    std::size_t next_lock = 0;
    sim::SimTime lock_point = 0;  ///< when the last lock was granted here
    // Snapshot of the read set.
    std::map<core::ObjectId, core::Value> snapshot_values;
    std::map<core::ObjectId, core::MOpId> snapshot_writers;
    std::size_t read_replies_expected = 0;
    std::size_t read_replies = 0;
    std::size_t commit_acks_expected = 0;
    std::size_t commit_acks = 0;
    mscript::Value return_value = 0;
    std::vector<core::Operation> ops;
    /// Aggregate mode: the lock's home is decoupled from the data homes,
    /// so releasing it in the same round as the writes would let the
    /// next holder read stale data (the unlock can overtake a write on a
    /// reordering network). These unlocks go out only after every write
    /// commit is acknowledged.
    std::vector<LockId> deferred_unlocks;
  };
  void on_lock_grant(sim::Context& ctx, std::uint64_t token);
  void request_next_lock(sim::Context& ctx, PendingOp& op);
  void start_read_phase(sim::Context& ctx, PendingOp& op);
  void on_read_resp(sim::Context& ctx, std::uint64_t token,
                    const std::vector<std::uint32_t>& objects,
                    const std::vector<core::Value>& values,
                    const std::vector<std::uint32_t>& writers);
  void execute_and_commit(sim::Context& ctx, PendingOp& op);
  void on_commit_ack(sim::Context& ctx, std::uint64_t token);

  std::size_t num_objects_;
  std::size_t num_nodes_;
  ExecutionRecorder& recorder_;
  Options options_;

  // Home state: this node's partition of values/versions/locks.
  std::map<core::ObjectId, core::Value> home_values_;
  std::map<core::ObjectId, core::MOpId> home_writers_;
  std::map<LockId, LockState> home_locks_;

  std::map<std::uint64_t, PendingOp> pending_;  // token == recorder id
  std::optional<std::uint64_t> last_rank_;      // of this process's updates
};

}  // namespace mocc::protocols
