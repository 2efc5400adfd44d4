#include "abcast/sequencer.hpp"

#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/bytes.hpp"

namespace mocc::abcast {

SequencerAbcast::SequencerAbcast(Options options) : options_(options) {
  MOCC_ASSERT_MSG(options_.batch_max >= 1, "batch_max 0 makes no batches");
  MOCC_ASSERT_MSG(options_.batch_max == 1 || options_.batch_age >= 1,
                  "group commit needs an age trigger to keep partial "
                  "batches live");
  MOCC_ASSERT_MSG(!(options_.mutate_swap_first_two && options_.batch_max > 1),
                  "seq-swap mutation targets the unbatched wire path");
}

void SequencerAbcast::broadcast(sim::Context& ctx, std::vector<std::uint8_t> payload) {
  if (ctx.self() == kSequencerNode) {
    sequence_and_fan_out(ctx, ctx.self(), payload);
    return;
  }
  util::ByteWriter out(4 + 4 + util::encoded_size(payload));
  out.put_u32(ctx.self());
  out.put_u64_vector({});  // reserved
  out.put_bytes(payload);
  send(ctx, kSequencerNode, kSubmit, out.take());
}

void SequencerAbcast::sequence_and_fan_out(sim::Context& ctx, sim::NodeId origin,
                                           std::span<const std::uint8_t> payload) {
  MOCC_ASSERT(ctx.self() == kSequencerNode);
  if (options_.batch_max > 1) {
    // Group commit: park the submission; positions are assigned to the
    // whole batch at flush time, in this arrival order.
    const bool was_empty = batch_.empty();
    batch_.push_back(BatchItem{origin, std::vector<std::uint8_t>(payload.begin(), payload.end()),
                               ctx.trace_context(), ctx.now()});
    if (batch_.size() >= options_.batch_max) {
      flush_batch(ctx, /*trigger=*/0);
    } else if (was_empty) {
      batch_deadline_ = ctx.now() + options_.batch_age;
      ctx.set_timer(options_.batch_age, kBatchTimerId);
    }
    return;
  }
  const std::uint64_t seq = next_seq_to_assign_++;
  // mocc-check mutation: mislabel the first two fan-outs (0 <-> 1) while
  // the local accept below keeps the true position — receivers apply the
  // first two updates in the opposite order from the sequencer.
  std::uint64_t wire_seq = seq;
  if (options_.mutate_swap_first_two && seq < 2) wire_seq = 1 - seq;
  util::ByteWriter out(8 + 4 + util::encoded_size(payload));
  out.put_u64(wire_seq);
  out.put_u32(origin);
  out.put_bytes(payload);
  send_to_others(ctx, kDeliver, out.take());
  // Local delivery without a network hop.
  accept(ctx, seq, origin, payload, ctx.now());
}

void SequencerAbcast::flush_batch(sim::Context& ctx, std::uint32_t trigger) {
  MOCC_ASSERT(ctx.self() == kSequencerNode);
  if (batch_.empty()) return;  // stale age timer; nothing pending
  // Swap out before processing: deliver_ below may broadcast, enqueuing
  // into a fresh batch while this one is mid-flush.
  std::vector<BatchItem> batch;
  batch.swap(batch_);
  const std::uint64_t first = next_seq_to_assign_;
  next_seq_to_assign_ += batch.size();

  std::size_t frame_bytes = 8 + 4;
  for (const BatchItem& item : batch) frame_bytes += 4 + util::encoded_size(item.payload);
  util::ByteWriter out(frame_bytes);
  out.put_u64(first);
  out.put_u32(static_cast<std::uint32_t>(batch.size()));
  for (const BatchItem& item : batch) {
    out.put_u32(item.origin);
    out.put_bytes(item.payload);
  }
  if (auto* sink = ctx.trace_sink()) {
    sink->on_event({obs::TraceEventType::kBatchAssign, ctx.now(), ctx.self(), 0,
                    trigger, first, batch.size()});
    sink->on_event({obs::TraceEventType::kBatchFlush, ctx.now(), ctx.self(), 0,
                    trigger, out.size(), batch.size()});
  }
  // The frame rides the first item's context (the batch carrier); local
  // deliveries below restore each item's own context first.
  const obs::SpanContext outer = ctx.trace_context();
  ctx.set_trace_context(batch.front().trace);
  send_to_others(ctx, kDeliverBatch, out.take());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ctx.set_trace_context(batch[i].trace);
    accept(ctx, first + i, batch[i].origin, batch[i].payload, batch[i].seen_at);
  }
  ctx.set_trace_context(outer);
}

bool SequencerAbcast::on_timer(sim::Context& ctx, std::uint64_t timer_id) {
  if (timer_id != kBatchTimerId) return false;
  // One timer is armed per empty->nonempty transition; a size flush in
  // between makes this firing stale (the live batch armed a fresh timer
  // for its own, later deadline).
  if (!batch_.empty() && ctx.now() >= batch_deadline_) {
    flush_batch(ctx, /*trigger=*/1);
  }
  return true;
}

void SequencerAbcast::accept(sim::Context& ctx, std::uint64_t seq, sim::NodeId origin,
                             std::span<const std::uint8_t> payload, sim::SimTime seen_at) {
  // Each delivery re-roots the trace context at its abcast_agree span
  // (first sighting here -> agreed-position delivery); deliver() restores
  // it between deliveries so gap-fill deliveries keep their own contexts.
  const obs::SpanContext outer = ctx.trace_context();
  if (seq == next_seq_to_deliver_) {
    deliver(ctx, origin, payload, outer, seen_at, outer);
  } else {
    pending_[seq] = PendingDelivery{
        origin, std::vector<std::uint8_t>(payload.begin(), payload.end()), outer, seen_at};
  }
  while (true) {
    const auto it = pending_.find(next_seq_to_deliver_);
    if (it == pending_.end()) break;
    // Move out before erasing: the callback may broadcast, mutating
    // pending_ through nested sequencing on this node.
    const PendingDelivery next = std::move(it->second);
    pending_.erase(it);
    deliver(ctx, next.origin, next.payload, next.trace, next.seen_at, outer);
  }
}

void SequencerAbcast::deliver(sim::Context& ctx, sim::NodeId origin,
                              std::span<const std::uint8_t> payload, obs::SpanContext trace,
                              sim::SimTime seen_at, obs::SpanContext outer) {
  MOCC_ASSERT_MSG(deliver_ != nullptr, "deliver callback not wired");
  const std::uint64_t seq_pos = next_seq_to_deliver_++;
  if (auto* sink = ctx.trace_sink()) {
    sink->on_event({obs::TraceEventType::kAbcastSequence, ctx.now(), ctx.self(), origin, 0,
                    seq_pos, payload.size()});
    if (trace.valid()) {
      obs::Span agree;
      agree.type = obs::SpanType::kAbcastAgree;
      agree.trace_id = trace.trace_id;
      agree.span_id = ctx.new_span_id();
      agree.parent_span = trace.span_id;
      agree.begin = seen_at;
      agree.end = ctx.now();
      agree.node = ctx.self();
      agree.peer = origin;
      agree.id = seq_pos;
      agree.arg = payload.size();
      sink->on_span(agree);
      ctx.set_trace_context(obs::SpanContext{agree.trace_id, agree.span_id});
    }
  }
  deliver_(ctx, origin, payload);
  ctx.set_trace_context(outer);
}

bool SequencerAbcast::on_message(sim::Context& ctx, const sim::Message& message) {
  if (message.kind == kSubmit) {
    util::ByteReader in(message.payload);
    const sim::NodeId origin = in.get_u32();
    (void)in.get_u64_vector();
    sequence_and_fan_out(ctx, origin, in.get_bytes_view());
    return true;
  }
  if (message.kind == kDeliver) {
    util::ByteReader in(message.payload);
    const std::uint64_t seq = in.get_u64();
    const sim::NodeId origin = in.get_u32();
    accept(ctx, seq, origin, in.get_bytes_view(), ctx.now());
    return true;
  }
  if (message.kind == kDeliverBatch) {
    util::ByteReader in(message.payload);
    const std::uint64_t first = in.get_u64();
    const std::uint32_t count = in.get_u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const sim::NodeId origin = in.get_u32();
      accept(ctx, first + i, origin, in.get_bytes_view(), ctx.now());
    }
    return true;
  }
  return false;
}

}  // namespace mocc::abcast
