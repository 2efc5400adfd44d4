#include "protocols/locking_replica.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/bytes.hpp"

namespace mocc::protocols {

namespace {

/// StoreView over a locked snapshot: reads come from the snapshot (or the
/// operation's own buffered writes), writes are buffered for the commit
/// phase. Records operations at m-operation granularity.
class SnapshotStore final : public mscript::StoreView {
 public:
  SnapshotStore(const std::map<core::ObjectId, core::Value>& values,
                const std::map<core::ObjectId, core::MOpId>& writers,
                core::MOpId self)
      : values_(values), writers_(writers), self_(self) {}

  mscript::Value read(mscript::ObjectId object) override {
    if (const auto it = buffered_.find(object); it != buffered_.end()) {
      ops_.push_back(core::Operation::read(object, it->second, self_));
      return it->second;
    }
    const auto vit = values_.find(object);
    MOCC_ASSERT_MSG(vit != values_.end(), "read outside the snapshotted read set");
    const auto wit = writers_.find(object);
    const core::MOpId writer = wit == writers_.end() ? core::kInitialMOp : wit->second;
    ops_.push_back(core::Operation::read(object, vit->second, writer));
    return vit->second;
  }

  void write(mscript::ObjectId object, mscript::Value value) override {
    buffered_[object] = value;
    ops_.push_back(core::Operation::write(object, value));
  }

  std::vector<core::Operation> take_ops() { return std::move(ops_); }
  const std::map<core::ObjectId, core::Value>& buffered_writes() const {
    return buffered_;
  }

 private:
  const std::map<core::ObjectId, core::Value>& values_;
  const std::map<core::ObjectId, core::MOpId>& writers_;
  core::MOpId self_;
  std::map<core::ObjectId, core::Value> buffered_;
  std::vector<core::Operation> ops_;
};

}  // namespace

LockingReplica::LockingReplica(std::size_t num_objects, std::size_t num_nodes,
                               ExecutionRecorder& recorder, Options options)
    : num_objects_(num_objects),
      num_nodes_(num_nodes),
      recorder_(recorder),
      options_(options) {}

// ---------------------------------------------------------------- client

void LockingReplica::invoke(sim::Context& ctx, mscript::Program program,
                            ResponseFn on_response) {
  const core::Time invoke_time = ctx.now();
  const core::MOpId id = recorder_.begin(ctx.self(), program.name(), invoke_time);
  trace_mop(ctx, obs::TraceEventType::kMOpInvoke, id, program.is_update() ? 1 : 0);
  const std::uint64_t token = id;

  PendingOp op;
  op.id = id;
  op.program = std::move(program);
  op.on_response = std::move(on_response);
  op.invoke = invoke_time;
  op.trace = ctx.begin_trace();

  if (options_.aggregate) {
    op.locks = {aggregate_lock()};
    op.exclusive_locks = {aggregate_lock()};
  } else {
    std::vector<LockId> locks(op.program.may_read().begin(),
                              op.program.may_read().end());
    locks.insert(locks.end(), op.program.may_write().begin(),
                 op.program.may_write().end());
    std::sort(locks.begin(), locks.end());
    locks.erase(std::unique(locks.begin(), locks.end()), locks.end());
    op.locks = std::move(locks);
    op.exclusive_locks.insert(op.program.may_write().begin(),
                              op.program.may_write().end());
  }
  MOCC_ASSERT_MSG(!op.locks.empty(), "m-operation with empty footprint");

  auto [it, inserted] = pending_.emplace(token, std::move(op));
  MOCC_ASSERT(inserted);
  request_next_lock(ctx, it->second);
}

void LockingReplica::request_next_lock(sim::Context& ctx, PendingOp& op) {
  if (op.next_lock == op.locks.size()) {
    op.lock_point = ctx.now();
    op.phase = Phase::kReading;
    start_read_phase(ctx, op);
    return;
  }
  const LockId lock = op.locks[op.next_lock];
  const bool exclusive = op.exclusive_locks.count(lock) > 0;
  const sim::NodeId home = home_of_lock(lock);
  if (home == ctx.self()) {
    handle_lock_req(ctx, ctx.self(), op.id, lock, exclusive);
    return;
  }
  util::ByteWriter out;
  out.put_u64(op.id);
  out.put_u32(lock);
  out.put_u8(exclusive ? 1 : 0);
  net_send(ctx, home, kLockReq, out.take());
}

void LockingReplica::on_lock_grant(sim::Context& ctx, std::uint64_t token) {
  const auto it = pending_.find(token);
  MOCC_ASSERT_MSG(it != pending_.end(), "grant for unknown token");
  PendingOp& op = it->second;
  MOCC_ASSERT(op.phase == Phase::kAcquiring);
  ++op.next_lock;
  request_next_lock(ctx, op);
}

void LockingReplica::start_read_phase(sim::Context& ctx, PendingOp& op) {
  // Group the declared read set by home; one READ round trip per home.
  std::map<sim::NodeId, std::vector<std::uint32_t>> by_home;
  for (const auto x : op.program.may_read()) {
    by_home[home_of_object(x)].push_back(x);
  }
  if (by_home.empty()) {
    execute_and_commit(ctx, op);
    return;
  }
  op.read_replies_expected = by_home.size();
  for (const auto& [home, objects] : by_home) {
    if (home == ctx.self()) {
      handle_read_req(ctx, ctx.self(), op.id, objects);
      continue;
    }
    util::ByteWriter out;
    out.put_u64(op.id);
    out.put_u32_vector(objects);
    net_send(ctx, home, kReadReq, out.take());
  }
}

void LockingReplica::on_read_resp(sim::Context& ctx, std::uint64_t token,
                                  const std::vector<std::uint32_t>& objects,
                                  const std::vector<core::Value>& values,
                                  const std::vector<std::uint32_t>& writers) {
  const auto it = pending_.find(token);
  MOCC_ASSERT_MSG(it != pending_.end(), "read response for unknown token");
  PendingOp& op = it->second;
  MOCC_ASSERT(op.phase == Phase::kReading);
  MOCC_ASSERT(objects.size() == values.size() && objects.size() == writers.size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    op.snapshot_values[objects[i]] = values[i];
    op.snapshot_writers[objects[i]] = writers[i];
  }
  ++op.read_replies;
  if (op.read_replies == op.read_replies_expected) {
    execute_and_commit(ctx, op);
  }
}

void LockingReplica::execute_and_commit(sim::Context& ctx, PendingOp& op) {
  op.phase = Phase::kCommitting;
  SnapshotStore store(op.snapshot_values, op.snapshot_writers, op.id);
  const mscript::ExecutionResult exec = mscript::Vm::run(op.program, store);
  op.return_value = exec.return_value;
  const auto writes = store.buffered_writes();
  op.ops = store.take_ops();

  // One COMMIT per home holding any of our locks or receiving any write:
  // applying writes and releasing locks in a single message keeps them
  // ordered at the home even though channels reorder.
  struct HomeCommit {
    std::vector<std::uint32_t> write_objects;
    std::vector<core::Value> write_values;
    std::vector<std::uint32_t> unlock_shared;
    std::vector<std::uint32_t> unlock_exclusive;
  };
  std::map<sim::NodeId, HomeCommit> commits;
  for (const auto& [x, v] : writes) {
    auto& commit = commits[home_of_object(x)];
    commit.write_objects.push_back(x);
    commit.write_values.push_back(v);
  }
  const bool defer_unlocks = options_.aggregate && !writes.empty();
  if (defer_unlocks) {
    op.deferred_unlocks = op.locks;
  } else {
    for (const LockId lock : op.locks) {
      auto& commit = commits[home_of_lock(lock)];
      if (op.exclusive_locks.count(lock) > 0) {
        commit.unlock_exclusive.push_back(lock);
      } else {
        commit.unlock_shared.push_back(lock);
      }
    }
  }
  if (commits.empty()) {
    // Nothing to write and unlocks deferred: release directly.
    MOCC_ASSERT(defer_unlocks);
    op.deferred_unlocks.clear();
    for (const LockId lock : op.locks) {
      auto& commit = commits[home_of_lock(lock)];
      if (op.exclusive_locks.count(lock) > 0) {
        commit.unlock_exclusive.push_back(lock);
      } else {
        commit.unlock_shared.push_back(lock);
      }
    }
  }
  // mocc-check mutation: break the writes-and-unlocks-ride-together
  // invariant by splitting each home's commit into an unlock-only message
  // sent BEFORE a write-only one — on a reordering (or explored) network
  // the next lock holder can read the home copy before the write lands.
  std::vector<std::pair<sim::NodeId, HomeCommit>> messages;
  for (auto& [home, commit] : commits) {
    const bool has_writes = !commit.write_objects.empty();
    const bool has_unlocks =
        !commit.unlock_shared.empty() || !commit.unlock_exclusive.empty();
    if (options_.mutate_early_release && has_writes && has_unlocks) {
      HomeCommit unlocks;
      unlocks.unlock_shared.swap(commit.unlock_shared);
      unlocks.unlock_exclusive.swap(commit.unlock_exclusive);
      messages.emplace_back(home, std::move(unlocks));
    }
    messages.emplace_back(home, std::move(commit));
  }
  op.commit_acks_expected = messages.size();
  MOCC_ASSERT(op.commit_acks_expected > 0);
  for (const auto& [home, commit] : messages) {
    if (home == ctx.self()) {
      handle_commit_req(ctx, ctx.self(), op.id, commit.write_objects,
                        commit.write_values, commit.unlock_shared,
                        commit.unlock_exclusive);
      continue;
    }
    util::ByteWriter out;
    out.put_u64(op.id);
    out.put_u32_vector(commit.write_objects);
    out.put_i64_vector(commit.write_values);
    out.put_u32_vector(commit.unlock_shared);
    out.put_u32_vector(commit.unlock_exclusive);
    net_send(ctx, home, kCommitReq, out.take());
  }
}

void LockingReplica::on_commit_ack(sim::Context& ctx, std::uint64_t token) {
  const auto it = pending_.find(token);
  MOCC_ASSERT_MSG(it != pending_.end(), "commit ack for unknown token");
  PendingOp& op = it->second;
  MOCC_ASSERT(op.phase == Phase::kCommitting);
  ++op.commit_acks;
  if (op.commit_acks < op.commit_acks_expected) return;

  if (!op.deferred_unlocks.empty()) {
    // Aggregate mode, second round: all writes are durable at their
    // homes — now the lock may be released.
    struct HomeRelease {
      std::vector<std::uint32_t> unlock_shared;
      std::vector<std::uint32_t> unlock_exclusive;
    };
    std::map<sim::NodeId, HomeRelease> releases;
    for (const LockId lock : op.deferred_unlocks) {
      auto& release = releases[home_of_lock(lock)];
      if (op.exclusive_locks.count(lock) > 0) {
        release.unlock_exclusive.push_back(lock);
      } else {
        release.unlock_shared.push_back(lock);
      }
    }
    op.deferred_unlocks.clear();
    op.commit_acks = 0;
    op.commit_acks_expected = releases.size();
    for (const auto& [home, release] : releases) {
      if (home == ctx.self()) {
        handle_commit_req(ctx, ctx.self(), op.id, {}, {}, release.unlock_shared,
                          release.unlock_exclusive);
        continue;
      }
      util::ByteWriter out;
      out.put_u64(op.id);
      out.put_u32_vector({});
      out.put_i64_vector({});
      out.put_u32_vector(release.unlock_shared);
      out.put_u32_vector(release.unlock_exclusive);
      net_send(ctx, home, kCommitReq, out.take());
    }
    return;
  }

  PendingOp done = std::move(op);
  pending_.erase(it);
  const core::Time response_time = ctx.now();
  // An update's ~ww rank is its lock point, ties broken by process. Two
  // updates of this process with one lock point (invoked in the tick the
  // first completed, with every lock and object local) stay unranked.
  std::optional<std::uint64_t> rank;
  if (done.program.is_update()) {
    const std::uint64_t at = done.lock_point * num_nodes_ + ctx.self();
    if (!last_rank_.has_value() || at > *last_rank_) rank = last_rank_ = at;
  }
  trace_mop_span(ctx, done.trace, done.id, done.invoke, done.program.is_update(), rank,
                 done.ops);
  // No version-vector timestamps: the locking baseline is not a §5
  // protocol, so it has no P5.x audit.
  recorder_.complete(done.id, std::move(done.ops), response_time,
                     util::VersionVector(num_objects_), rank);
  trace_mop(ctx, obs::TraceEventType::kMOpRespond, done.id, done.invoke);
  done.on_response(
      InvocationOutcome{done.id, done.return_value, done.invoke, response_time});
}

// ----------------------------------------------------------------- home

void LockingReplica::handle_lock_req(sim::Context& ctx, sim::NodeId from,
                                     std::uint64_t token, LockId lock,
                                     bool exclusive) {
  MOCC_ASSERT(home_of_lock(lock) == ctx.self());
  LockState& state = home_locks_[lock];
  state.queue.push_back(
      LockState::Waiter{from, token, exclusive, ctx.trace_context(), ctx.now()});
  pump_lock_queue(ctx, lock);
}

void LockingReplica::pump_lock_queue(sim::Context& ctx, LockId lock) {
  // Each grant re-roots the trace context at the waiter's lock_wait span
  // so the grant (and everything it causes) is attributed to the wait;
  // restore afterwards so unrelated work in the same dispatch keeps its
  // own context.
  const obs::SpanContext outer = ctx.trace_context();
  LockState& state = home_locks_[lock];
  while (!state.queue.empty()) {
    const LockState::Waiter head = state.queue.front();
    if (head.exclusive) {
      if (state.shared_holders > 0 || state.exclusive_held) break;
      state.exclusive_held = true;
    } else {
      if (state.exclusive_held) break;
      ++state.shared_holders;  // strict FIFO: shared never overtakes
    }
    state.queue.erase(state.queue.begin());
    // Trace at the home, where the grant decision is made — the queue
    // wait that precedes this instant is the contention E6 measures.
    if (auto* sink = ctx.trace_sink()) {
      sink->on_event({obs::TraceEventType::kLockAcquire, ctx.now(), ctx.self(),
                      head.client, lock, head.token, head.exclusive ? 1u : 0u});
      if (head.trace.valid()) {
        obs::Span wait;
        wait.type = obs::SpanType::kLockWait;
        wait.trace_id = head.trace.trace_id;
        wait.span_id = ctx.new_span_id();
        wait.parent_span = head.trace.span_id;
        wait.begin = head.enqueued;
        wait.end = ctx.now();
        wait.node = ctx.self();
        wait.peer = head.client;
        wait.kind = lock;
        wait.id = head.token;
        wait.arg = head.exclusive ? 1u : 0u;
        sink->on_span(wait);
        ctx.set_trace_context(obs::SpanContext{wait.trace_id, wait.span_id});
      }
    }
    grant(ctx, head.client, head.token, lock);
    ctx.set_trace_context(outer);
  }
}

void LockingReplica::grant(sim::Context& ctx, sim::NodeId client, std::uint64_t token,
                           LockId lock) {
  if (client == ctx.self()) {
    on_lock_grant(ctx, token);
    return;
  }
  util::ByteWriter out;
  out.put_u64(token);
  out.put_u32(lock);
  net_send(ctx, client, kLockGrant, out.take());
}

void LockingReplica::handle_read_req(sim::Context& ctx, sim::NodeId from,
                                     std::uint64_t token,
                                     const std::vector<std::uint32_t>& objects) {
  std::vector<core::Value> values;
  std::vector<std::uint32_t> writers;
  values.reserve(objects.size());
  writers.reserve(objects.size());
  for (const auto x : objects) {
    MOCC_ASSERT(home_of_object(x) == ctx.self());
    const auto vit = home_values_.find(x);
    values.push_back(vit == home_values_.end() ? 0 : vit->second);
    const auto wit = home_writers_.find(x);
    writers.push_back(wit == home_writers_.end() ? core::kInitialMOp : wit->second);
  }
  if (from == ctx.self()) {
    on_read_resp(ctx, token, objects, values, writers);
    return;
  }
  util::ByteWriter out;
  out.put_u64(token);
  out.put_u32_vector(objects);
  out.put_i64_vector(values);
  out.put_u32_vector(writers);
  net_send(ctx, from, kReadResp, out.take());
}

void LockingReplica::handle_commit_req(sim::Context& ctx, sim::NodeId from,
                                       std::uint64_t token,
                                       const std::vector<std::uint32_t>& write_objects,
                                       const std::vector<core::Value>& write_values,
                                       const std::vector<std::uint32_t>& unlock_shared,
                                       const std::vector<std::uint32_t>& unlock_exclusive) {
  MOCC_ASSERT(write_objects.size() == write_values.size());
  for (std::size_t i = 0; i < write_objects.size(); ++i) {
    MOCC_ASSERT(home_of_object(write_objects[i]) == ctx.self());
    home_values_[write_objects[i]] = write_values[i];
    home_writers_[write_objects[i]] = static_cast<core::MOpId>(token);
  }
  for (const auto lock : unlock_shared) {
    LockState& state = home_locks_[lock];
    MOCC_ASSERT(state.shared_holders > 0);
    --state.shared_holders;
    if (auto* sink = ctx.trace_sink()) {
      sink->on_event({obs::TraceEventType::kLockRelease, ctx.now(), ctx.self(), from,
                      lock, token, 0});
    }
    pump_lock_queue(ctx, lock);
  }
  for (const auto lock : unlock_exclusive) {
    LockState& state = home_locks_[lock];
    MOCC_ASSERT(state.exclusive_held);
    state.exclusive_held = false;
    if (auto* sink = ctx.trace_sink()) {
      sink->on_event({obs::TraceEventType::kLockRelease, ctx.now(), ctx.self(), from,
                      lock, token, 1});
    }
    pump_lock_queue(ctx, lock);
  }
  if (from == ctx.self()) {
    on_commit_ack(ctx, token);
    return;
  }
  util::ByteWriter out;
  out.put_u64(token);
  net_send(ctx, from, kCommitAck, out.take());
}

// ------------------------------------------------------------- dispatch

void LockingReplica::handle_delivered(sim::Context& ctx, const sim::Message& message) {
  util::ByteReader in(message.payload);
  switch (message.kind) {
    case kLockReq: {
      const std::uint64_t token = in.get_u64();
      const LockId lock = in.get_u32();
      const bool exclusive = in.get_u8() != 0;
      handle_lock_req(ctx, message.from, token, lock, exclusive);
      return;
    }
    case kLockGrant: {
      const std::uint64_t token = in.get_u64();
      (void)in.get_u32();
      on_lock_grant(ctx, token);
      return;
    }
    case kReadReq: {
      const std::uint64_t token = in.get_u64();
      const auto objects = in.get_u32_vector();
      handle_read_req(ctx, message.from, token, objects);
      return;
    }
    case kReadResp: {
      const std::uint64_t token = in.get_u64();
      const auto objects = in.get_u32_vector();
      const auto values = in.get_i64_vector();
      const auto writers = in.get_u32_vector();
      on_read_resp(ctx, token, objects, values, writers);
      return;
    }
    case kCommitReq: {
      const std::uint64_t token = in.get_u64();
      const auto write_objects = in.get_u32_vector();
      const auto write_values = in.get_i64_vector();
      const auto unlock_shared = in.get_u32_vector();
      const auto unlock_exclusive = in.get_u32_vector();
      handle_commit_req(ctx, message.from, token, write_objects, write_values,
                        unlock_shared, unlock_exclusive);
      return;
    }
    case kCommitAck: {
      const std::uint64_t token = in.get_u64();
      on_commit_ack(ctx, token);
      return;
    }
    default:
      MOCC_ASSERT_MSG(false, "locking replica received a foreign message kind");
  }
}

}  // namespace mocc::protocols
