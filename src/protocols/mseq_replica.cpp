#include "protocols/mseq_replica.hpp"

#include "util/assert.hpp"
#include "util/bytes.hpp"

namespace mocc::protocols {

RecordingStore::RecordingStore(std::vector<core::Value>& values,
                               std::vector<core::MOpId>& last_writer, core::MOpId self,
                               const mscript::Program& program, bool record)
    : values_(values), last_writer_(last_writer), self_(self), record_(record) {
  // Library programs access each declared object at most once per kind.
  if (record_) ops_.reserve(program.may_read().size() + program.may_write().size());
}

mscript::Value RecordingStore::read(mscript::ObjectId object) {
  MOCC_ASSERT(object < values_.size());
  if (record_) {
    ops_.push_back(core::Operation::read(object, values_[object], last_writer_[object]));
  }
  return values_[object];
}

void RecordingStore::write(mscript::ObjectId object, mscript::Value value) {
  MOCC_ASSERT(object < values_.size());
  values_[object] = value;
  last_writer_[object] = self_;
  if (record_) ops_.push_back(core::Operation::write(object, value));
}

MSeqReplica::MSeqReplica(std::size_t num_objects,
                         std::unique_ptr<abcast::AtomicBroadcast> abcast,
                         ExecutionRecorder& recorder, Options options)
    : num_objects_(num_objects),
      abcast_(std::move(abcast)),
      recorder_(recorder),
      options_(options),
      my_x_(num_objects, 0),
      myts_(num_objects),
      last_writer_(num_objects, core::kInitialMOp) {
  MOCC_ASSERT(abcast_ != nullptr);
}

void MSeqReplica::on_start(sim::Context& ctx) {
  abcast_->set_deliver([this](sim::Context& live_ctx, sim::NodeId origin,
                              std::span<const std::uint8_t> payload) {
    on_deliver(live_ctx, origin, payload);
  });
  abcast_->set_reliable_link(reliable_link());
  route_timers_to_abcast(abcast_.get());
  abcast_->on_start(ctx);
}

void MSeqReplica::invoke(sim::Context& ctx, mscript::Program program,
                         ResponseFn on_response) {
  const core::Time invoke_time = ctx.now();
  const core::MOpId id = recorder_.begin(ctx.self(), program.name(), invoke_time);
  trace_mop(ctx, obs::TraceEventType::kMOpInvoke, id, program.is_update() ? 1 : 0);
  const obs::SpanContext root = ctx.begin_trace();

  if (program.is_update() || options_.broadcast_queries) {
    // (A1): atomically broadcast the m-operation. In broadcast-queries
    // mode queries take the same path and execute at delivery, pinning
    // them to one point of the total order (m-linearizability).
    util::ByteWriter out(4 + program.encoded_size());
    out.put_u32(id);
    program.encode(out);
    pending_[id] = PendingUpdate{std::move(on_response), invoke_time, root};
    abcast_->broadcast(ctx, out.take());
    return;
  }

  // (A3): queries execute against the local copy, no messages.
  RecordingStore store(my_x_, last_writer_, id, program);
  mscript::Vm::run(program, store, exec_);
  MOCC_ASSERT_MSG(exec_.objects_written().empty(), "query program performed a write");
  const mscript::Value return_value = exec_.return_value;
  const core::Time response_time = ctx.now();
  std::vector<core::Operation> ops = store.take_ops();
  trace_mop_span(ctx, root, id, invoke_time, false, std::nullopt, ops);
  recorder_.complete(id, std::move(ops), response_time, myts_, std::nullopt);
  trace_mop(ctx, obs::TraceEventType::kMOpRespond, id, invoke_time);
  on_response(InvocationOutcome{id, return_value, invoke_time, response_time});
}

void MSeqReplica::on_deliver(sim::Context& ctx, sim::NodeId origin,
                             std::span<const std::uint8_t> payload) {
  // (A2): apply the m-operation to the local copy; bump versions of the
  // objects written; respond if we are the origin.
  util::ByteReader in(payload);
  const core::MOpId id = in.get_u32();
  mscript::Program& program = delivered_;
  mscript::Program::decode(in, program);

  // ~ww records the broadcast position of *updates* (queries riding the
  // stream in broadcast-queries mode are ordered by real time alone —
  // P5.1 forbids synthesizing stronger query-query edges).
  const std::uint64_t seq = deliveries_++;
  const std::optional<std::uint64_t> ww_seq =
      program.is_update() ? std::optional<std::uint64_t>(seq) : std::nullopt;

  // mocc-check mutation: drop the first foreign delivery on the floor
  // (slot consumed, state untouched) — this replica's copy goes stale.
  if (options_.mutate_skip_first_foreign && !mutation_skipped_ &&
      origin != ctx.self()) {
    mutation_skipped_ = true;
    return;
  }

  RecordingStore store(my_x_, last_writer_, id, program, origin == ctx.self());
  mscript::Vm::run(program, store, exec_);
  exec_.for_each_object_written([this](mscript::ObjectId x) { myts_.increment(x); });

  if (origin == ctx.self()) {
    const auto it = pending_.find(id);
    MOCC_ASSERT_MSG(it != pending_.end(), "delivered own update without pending state");
    const PendingUpdate pending = std::move(it->second);
    pending_.erase(it);
    const core::Time response_time = ctx.now();
    std::vector<core::Operation> ops = store.take_ops();
    trace_mop_span(ctx, pending.trace, id, pending.invoke, program.is_update(), ww_seq,
                   ops);
    recorder_.complete(id, std::move(ops), response_time, myts_, ww_seq);
    trace_mop(ctx, obs::TraceEventType::kMOpRespond, id, pending.invoke);
    pending.on_response(
        InvocationOutcome{id, exec_.return_value, pending.invoke, response_time});
  }
}

void MSeqReplica::handle_delivered(sim::Context& ctx, const sim::Message& message) {
  const bool consumed = abcast_->on_message(ctx, message);
  MOCC_ASSERT_MSG(consumed, "m-seq replica received a foreign message kind");
}

}  // namespace mocc::protocols
