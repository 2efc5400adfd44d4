#include "abcast/isis.hpp"

#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/bytes.hpp"

namespace mocc::abcast {

void IsisAbcast::broadcast(sim::Context& ctx, std::vector<std::uint8_t> payload) {
  const std::uint64_t msgid = next_msgid_++;

  util::ByteWriter out(4 + 8 + util::encoded_size(payload));
  out.put_u32(ctx.self());
  out.put_u64(msgid);
  out.put_bytes(payload);
  send_to_others(ctx, kPropose, out.take());

  // Own proposal.
  const Stamp own{++lamport_, ctx.self()};
  pending_[{ctx.self(), msgid}] = Pending{std::move(payload), own, /*final=*/false,
                                          ctx.trace_context(), ctx.now()};
  collecting_[msgid] = Collecting{own, 1};

  if (ctx.num_nodes() == 1) {
    finalize(ctx, {ctx.self(), msgid}, own);
    collecting_.erase(msgid);
  }
}

void IsisAbcast::handle_propose(sim::Context& ctx, sim::NodeId origin,
                                std::uint64_t msgid,
                                std::vector<std::uint8_t> payload) {
  const Stamp proposal{++lamport_, ctx.self()};
  const MsgKey key{origin, msgid};
  pending_[key] = Pending{std::move(payload), proposal, /*final=*/false,
                          ctx.trace_context(), ctx.now()};

  util::ByteWriter out(8 + 8 + 4);
  out.put_u64(msgid);
  out.put_u64(proposal.clock);
  out.put_u32(proposal.node);
  send(ctx, origin, kProposal, out.take());

  // A FINAL may have arrived before the PROPOSE.
  if (const auto it = early_finals_.find(key); it != early_finals_.end()) {
    const Stamp early = it->second;
    early_finals_.erase(it);
    finalize(ctx, key, early);
  }
}

void IsisAbcast::handle_proposal(sim::Context& ctx, std::uint64_t msgid,
                                 Stamp proposal) {
  const auto it = collecting_.find(msgid);
  MOCC_ASSERT_MSG(it != collecting_.end(), "proposal for unknown own broadcast");
  Collecting& state = it->second;
  if (state.max_proposal < proposal) state.max_proposal = proposal;
  ++state.responses;
  if (state.responses < ctx.num_nodes()) return;

  const Stamp final_stamp = state.max_proposal;
  util::ByteWriter out(4 + 8 + 8 + 4);
  out.put_u32(ctx.self());
  out.put_u64(msgid);
  out.put_u64(final_stamp.clock);
  out.put_u32(final_stamp.node);
  send_to_others(ctx, kFinal, out.take());

  finalize(ctx, {ctx.self(), msgid}, final_stamp);
  collecting_.erase(it);
}

void IsisAbcast::finalize(sim::Context& ctx, const MsgKey& key, Stamp final_stamp) {
  lamport_ = std::max(lamport_, final_stamp.clock);
  const auto it = pending_.find(key);
  MOCC_ASSERT_MSG(it != pending_.end(), "finalize without pending entry");
  MOCC_ASSERT_MSG(!(final_stamp < it->second.stamp),
                  "final timestamp below own proposal");
  it->second.stamp = final_stamp;
  it->second.final = true;
  try_deliver(ctx);
}

void IsisAbcast::try_deliver(sim::Context& ctx) {
  // Each delivery re-roots the trace context at its abcast_agree span;
  // restore between iterations so queued deliveries keep their own
  // contexts (see SequencerAbcast::accept).
  const obs::SpanContext outer = ctx.trace_context();
  for (;;) {
    const std::pair<const MsgKey, Pending>* min_entry = nullptr;
    for (const auto& entry : pending_) {
      if (min_entry == nullptr || entry.second.stamp < min_entry->second.stamp) {
        min_entry = &entry;
      }
    }
    if (min_entry == nullptr || !min_entry->second.final) return;
    MOCC_ASSERT_MSG(deliver_ != nullptr, "deliver callback not wired");
    const MsgKey key = min_entry->first;
    const obs::SpanContext msg_trace = min_entry->second.trace;
    const sim::SimTime seen_at = min_entry->second.seen_at;
    // Deliver before erasing; the callback may trigger nested broadcasts,
    // which never touch this (final) entry.
    const std::vector<std::uint8_t> payload = std::move(pending_.at(key).payload);
    pending_.erase(key);
    const std::uint64_t seq_pos = next_delivery_pos_++;
    if (auto* sink = ctx.trace_sink()) {
      sink->on_event({obs::TraceEventType::kAbcastSequence, ctx.now(), ctx.self(),
                      key.first, 0, seq_pos, payload.size()});
      if (msg_trace.valid()) {
        obs::Span agree;
        agree.type = obs::SpanType::kAbcastAgree;
        agree.trace_id = msg_trace.trace_id;
        agree.span_id = ctx.new_span_id();
        agree.parent_span = msg_trace.span_id;
        agree.begin = seen_at;
        agree.end = ctx.now();
        agree.node = ctx.self();
        agree.peer = key.first;
        agree.id = seq_pos;
        agree.arg = payload.size();
        sink->on_span(agree);
        ctx.set_trace_context(obs::SpanContext{agree.trace_id, agree.span_id});
      }
    }
    deliver_(ctx, key.first, payload);
    ctx.set_trace_context(outer);
    continue;
  }
}

bool IsisAbcast::on_message(sim::Context& ctx, const sim::Message& message) {
  switch (message.kind) {
    case kPropose: {
      util::ByteReader in(message.payload);
      const sim::NodeId origin = in.get_u32();
      const std::uint64_t msgid = in.get_u64();
      handle_propose(ctx, origin, msgid, in.get_bytes());
      return true;
    }
    case kProposal: {
      util::ByteReader in(message.payload);
      const std::uint64_t msgid = in.get_u64();
      Stamp proposal;
      proposal.clock = in.get_u64();
      proposal.node = in.get_u32();
      handle_proposal(ctx, msgid, proposal);
      return true;
    }
    case kFinal: {
      util::ByteReader in(message.payload);
      const sim::NodeId origin = in.get_u32();
      const std::uint64_t msgid = in.get_u64();
      Stamp final_stamp;
      final_stamp.clock = in.get_u64();
      final_stamp.node = in.get_u32();
      const MsgKey key{origin, msgid};
      if (pending_.find(key) == pending_.end()) {
        early_finals_[key] = final_stamp;  // FINAL overtook PROPOSE
      } else {
        finalize(ctx, key, final_stamp);
      }
      return true;
    }
    default:
      return false;
  }
}

}  // namespace mocc::abcast
