#include "protocols/mlin_replica.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/bytes.hpp"

namespace mocc::protocols {

namespace {

/// (A5) for one reply: fold ⟨X, ts⟩ into the freshest-copy accumulator.
/// Full replies (objects empty) rely on pointwise comparability and keep
/// the larger copy whole; narrow replies take each object from the
/// freshest copy seen and merge timestamps componentwise.
void merge_reply(std::vector<core::Value>& oth_x, util::VersionVector& othts,
                 std::vector<core::MOpId>& oth_writer,
                 const std::vector<std::uint32_t>& objects,
                 const util::VersionVector& ts,
                 const std::vector<core::Value>& values,
                 const std::vector<std::uint32_t>& writers,
                 std::size_t num_objects) {
  if (objects.empty()) {
    MOCC_ASSERT_MSG(othts.comparable(ts),
                    "replica timestamps not comparable — abcast order broken");
    if (othts.pointwise_less(ts)) {
      MOCC_ASSERT(values.size() == num_objects && writers.size() == num_objects);
      oth_x = values;
      othts = ts;
      oth_writer = writers;
    }
  } else {
    MOCC_ASSERT(values.size() == objects.size() && writers.size() == objects.size());
    for (std::size_t i = 0; i < objects.size(); ++i) {
      const auto x = objects[i];
      if (ts[x] > othts[x]) {
        oth_x[x] = values[i];
        oth_writer[x] = writers[i];
      }
    }
    othts.merge_max(ts);
  }
}

}  // namespace

MLinReplica::MLinReplica(std::size_t num_objects,
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

void MLinReplica::on_start(sim::Context& ctx) {
  abcast_->set_deliver([this](sim::Context& live_ctx, sim::NodeId origin,
                              const std::vector<std::uint8_t>& payload) {
    on_deliver(live_ctx, origin, payload);
  });
  abcast_->set_reliable_link(reliable_link());
  route_timers_to_abcast(abcast_.get());
  abcast_->on_start(ctx);
}

void MLinReplica::invoke(sim::Context& ctx, mscript::Program program,
                         ResponseFn on_response) {
  const core::Time invoke_time = ctx.now();
  const core::MOpId id = recorder_.begin(ctx.self(), program.name(), invoke_time);
  trace_mop(ctx, obs::TraceEventType::kMOpInvoke, id, program.is_update() ? 1 : 0);
  const obs::SpanContext root = ctx.begin_trace();

  if (program.is_update()) {
    // (A1): identical to Figure 4.
    util::ByteWriter out(4 + program.encoded_size());
    out.put_u32(id);
    program.encode(out);
    pending_updates_[id] = PendingUpdate{std::move(on_response), invoke_time, root};
    abcast_->broadcast(ctx, out.take());
    return;
  }

  // (A3): ask every process for its copy. Our own copy seeds othX/othts.
  const std::uint64_t qid = next_qid_++;
  PendingQuery query;
  query.id = id;
  query.program = std::move(program);
  query.on_response = std::move(on_response);
  query.invoke = invoke_time;
  query.trace = root;

  if (options_.batch_queries) {
    // Query rounds: join the waiting set; the round that serves this
    // query opens strictly after this invocation, so the round's merged
    // copy is fresh enough for it (header comment). The merged state
    // lives at round level — this query's oth fields stay empty until
    // complete_round hands the copy over.
    pending_queries_[qid] = std::move(query);
    waiting_.push_back(qid);
    if (!round_active_) start_round(ctx);
    return;
  }

  query.oth_x = my_x_;
  query.othts = myts_;
  query.oth_writer = last_writer_;
  const PendingQuery& pending = pending_queries_[qid] = std::move(query);

  if (ctx.num_nodes() == 1) {
    finish_query(ctx, qid);
    return;
  }
  const std::vector<std::uint32_t> whole_store;  // an empty footprint
  const std::vector<std::uint32_t>& footprint =
      options_.narrow_replies ? pending.program.may_read() : whole_store;
  util::ByteWriter out(8 + util::encoded_size(footprint));
  out.put_u64(qid);
  out.put_u32_vector(footprint);
  net_send_to_others(ctx, kQuery, out.take());
}

void MLinReplica::on_deliver(sim::Context& ctx, sim::NodeId origin,
                             const std::vector<std::uint8_t>& payload) {
  // (A2): identical to Figure 4.
  util::ByteReader in(payload);
  const core::MOpId id = in.get_u32();
  mscript::Program& program = delivered_;
  mscript::Program::decode(in, program);

  const std::uint64_t ww_seq = deliveries_++;

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
    const auto it = pending_updates_.find(id);
    MOCC_ASSERT_MSG(it != pending_updates_.end(),
                    "delivered own update without pending state");
    const PendingUpdate pending = std::move(it->second);
    pending_updates_.erase(it);
    const core::Time response_time = ctx.now();
    std::vector<core::Operation> ops = store.take_ops();
    trace_mop_span(ctx, pending.trace, id, pending.invoke, true, ww_seq, ops);
    recorder_.complete(id, std::move(ops), response_time, myts_, ww_seq);
    trace_mop(ctx, obs::TraceEventType::kMOpRespond, id, pending.invoke);
    pending.on_response(
        InvocationOutcome{id, exec_.return_value, pending.invoke, response_time});
  }
}

void MLinReplica::on_query(sim::Context& ctx, const sim::Message& message,
                           std::uint32_t resp_kind) {
  // (A4): reply with our copy and its timestamps (plus the last-writer
  // table, which exists for history recording, not for the protocol).
  // Round requests (kQueryBatch) share the body layout — `qid` is then a
  // round id and the reply goes back as resp_kind = kQueryRespBatch.
  util::ByteReader in(message.payload);
  const std::uint64_t qid = in.get_u64();
  std::vector<std::uint32_t>& objects = reply_objects_;
  in.get_u32_vector(objects);

  const std::size_t copied = objects.empty() ? num_objects_ : objects.size();
  util::ByteWriter out(8 + util::encoded_size(objects) + util::encoded_size(myts_.entries()) +
                       4 + 8 * copied + 4 + 4 * copied);
  out.put_u64(qid);
  out.put_u32_vector(objects);
  out.put_u64_vector(myts_.entries());  // full ts always (8B/object)
  if (objects.empty()) {
    out.put_i64_vector(my_x_);
    out.put_u32_vector(last_writer_);
  } else {
    // put_i64_vector / put_u32_vector of the declared objects' entries.
    out.put_u32(static_cast<std::uint32_t>(objects.size()));
    for (const auto x : objects) {
      MOCC_ASSERT(x < num_objects_);
      out.put_i64(my_x_[x]);
    }
    out.put_u32(static_cast<std::uint32_t>(objects.size()));
    for (const auto x : objects) out.put_u32(last_writer_[x]);
  }
  net_send(ctx, message.from, resp_kind, out.take());
}

std::uint64_t MLinReplica::decode_reply(const sim::Message& message) {
  util::ByteReader in(message.payload);
  const std::uint64_t id = in.get_u64();
  in.get_u32_vector(reply_objects_);
  in.get_u64_vector(reply_entries_);
  MOCC_ASSERT(reply_entries_.size() == num_objects_);
  reply_ts_.assign(reply_entries_);
  in.get_i64_vector(reply_values_);
  in.get_u32_vector(reply_writers_);
  return id;
}

void MLinReplica::on_query_response(sim::Context& ctx, const sim::Message& message) {
  const std::uint64_t qid = decode_reply(message);
  const auto it = pending_queries_.find(qid);
  MOCC_ASSERT_MSG(it != pending_queries_.end(), "query response for unknown query");
  PendingQuery& query = it->second;

  merge_reply(query.oth_x, query.othts, query.oth_writer, reply_objects_, reply_ts_,
              reply_values_, reply_writers_, num_objects_);

  ++query.replies;
  if (query.replies == ctx.num_nodes() - 1) {
    finish_query(ctx, qid);
  }
}

void MLinReplica::start_round(sim::Context& ctx) {
  MOCC_ASSERT(!round_active_ && !waiting_.empty());
  round_active_ = true;
  round_ = QueryRound{};
  round_.id = next_round_id_++;
  round_.qids.swap(waiting_);
  // Seed the round's accumulator from the local copy *now* — the round
  // opens after every member invoked, so this is fresh enough for all.
  round_.oth_x = my_x_;
  round_.othts = myts_;
  round_.oth_writer = last_writer_;

  if (options_.narrow_replies) {
    // Footprint = union of the members' may_read sets. An empty union
    // would be encoded as "whole store", so fall back to full replies in
    // that (read-nothing) corner instead of widening the wire meaning.
    std::vector<std::uint32_t> footprint;
    for (const std::uint64_t qid : round_.qids) {
      const auto& may_read = pending_queries_.at(qid).program.may_read();
      footprint.insert(footprint.end(), may_read.begin(), may_read.end());
    }
    std::sort(footprint.begin(), footprint.end());
    footprint.erase(std::unique(footprint.begin(), footprint.end()),
                    footprint.end());
    round_.footprint = std::move(footprint);
  }

  util::ByteWriter out(8 + util::encoded_size(round_.footprint));
  out.put_u64(round_.id);
  out.put_u32_vector(round_.footprint);
  const std::vector<std::uint8_t> frame = out.take();

  if (auto* sink = ctx.trace_sink()) {
    sink->on_event({obs::TraceEventType::kBatchFlush, ctx.now(), ctx.self(),
                    /*peer=*/0, /*kind=*/2, frame.size(), round_.qids.size()});
  }

  if (ctx.num_nodes() == 1) {
    complete_round(ctx);
    return;
  }

  // The round's wire exchange carries the first member's trace context
  // (carrier semantics, docs/batching.md); per-member spans are closed
  // from each PendingQuery's own root at finish_query.
  const obs::SpanContext outer = ctx.trace_context();
  ctx.set_trace_context(pending_queries_.at(round_.qids.front()).trace);
  net_send_to_others(ctx, kQueryBatch, frame);
  ctx.set_trace_context(outer);
}

void MLinReplica::on_round_response(sim::Context& ctx, const sim::Message& message) {
  const std::uint64_t round_id = decode_reply(message);
  MOCC_ASSERT_MSG(round_active_ && round_id == round_.id,
                  "round response for a round that is not in flight");
  merge_reply(round_.oth_x, round_.othts, round_.oth_writer, reply_objects_, reply_ts_,
              reply_values_, reply_writers_, num_objects_);

  ++round_.replies;
  if (round_.replies == ctx.num_nodes() - 1) {
    complete_round(ctx);
  }
}

void MLinReplica::complete_round(sim::Context& ctx) {
  MOCC_ASSERT(round_active_);
  QueryRound round = std::move(round_);
  round_ = QueryRound{};

  for (const std::uint64_t qid : round.qids) {
    PendingQuery& query = pending_queries_.at(qid);
    query.oth_x = round.oth_x;
    query.othts = round.othts;
    query.oth_writer = round.oth_writer;
    // finish_query's on_response may re-enter invoke (closed-loop
    // drivers): new queries land in waiting_ and are served by the next
    // round, because round_active_ stays set until after this loop.
    finish_query(ctx, qid);
  }

  round_active_ = false;
  if (!waiting_.empty()) start_round(ctx);
}

void MLinReplica::finish_query(sim::Context& ctx, std::uint64_t qid) {
  // (A6): all replies in — read from the constructed copy and respond.
  const auto it = pending_queries_.find(qid);
  MOCC_ASSERT(it != pending_queries_.end());
  PendingQuery query = std::move(it->second);
  pending_queries_.erase(it);

  RecordingStore store(query.oth_x, query.oth_writer, query.id, query.program);
  mscript::Vm::run(query.program, store, exec_);
  MOCC_ASSERT_MSG(exec_.objects_written().empty(), "query program performed a write");

  const core::Time response_time = ctx.now();
  std::vector<core::Operation> ops = store.take_ops();
  trace_mop_span(ctx, query.trace, query.id, query.invoke, false, std::nullopt, ops);
  recorder_.complete(query.id, std::move(ops), response_time, std::move(query.othts),
                     std::nullopt);
  trace_mop(ctx, obs::TraceEventType::kMOpRespond, query.id, query.invoke);
  query.on_response(
      InvocationOutcome{query.id, exec_.return_value, query.invoke, response_time});
}

void MLinReplica::handle_delivered(sim::Context& ctx, const sim::Message& message) {
  if (message.kind == kQuery) {
    on_query(ctx, message, kQueryResp);
    return;
  }
  if (message.kind == kQueryBatch) {
    on_query(ctx, message, kQueryRespBatch);
    return;
  }
  if (message.kind == kQueryResp) {
    on_query_response(ctx, message);
    return;
  }
  if (message.kind == kQueryRespBatch) {
    on_round_response(ctx, message);
    return;
  }
  const bool consumed = abcast_->on_message(ctx, message);
  MOCC_ASSERT_MSG(consumed, "m-lin replica received a foreign message kind");
}

}  // namespace mocc::protocols
