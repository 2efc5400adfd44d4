#include "fault/reliable_link.hpp"

#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/bytes.hpp"

namespace mocc::fault {

namespace {

/// kLinkData frame: u64 seq | u32 inner kind | raw inner payload.
constexpr std::size_t kDataHeaderBytes = 12;

std::vector<std::uint8_t> encode_data(std::uint64_t seq, std::uint32_t kind,
                                      const std::vector<std::uint8_t>& payload) {
  util::ByteWriter writer(kDataHeaderBytes + payload.size());
  writer.put_u64(seq);
  writer.put_u32(kind);
  std::vector<std::uint8_t> frame = writer.take();
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

}  // namespace

ReliableLink::ReliableLink(Options options) : options_(options) {
  MOCC_ASSERT(options_.initial_rto >= 1);
  MOCC_ASSERT(options_.backoff >= 1.0);
  MOCC_ASSERT(options_.max_rto >= options_.initial_rto);
  MOCC_ASSERT_MSG(options_.coalesce_max_items >= 1,
                  "coalesce_max_items 0 makes no frames");
  MOCC_ASSERT_MSG(
      options_.coalesce_max_items == 1 || options_.coalesce_max_age >= 1,
      "coalescing needs an age trigger to keep partial queues live");
}

void ReliableLink::bump(std::uint64_t LinkStats::* field) {
  ++(stats_.*field);
  if (shared_ != nullptr) ++(shared_->*field);
}

void ReliableLink::send(sim::Context& ctx, sim::NodeId to, std::uint32_t kind,
                        std::vector<std::uint8_t> payload) {
  MOCC_ASSERT_MSG(to != ctx.self(), "reliable link never loops back to self");
  if (options_.coalesce_max_items > 1) {
    // Coalescing path: park the message; a size, byte, or age trigger
    // frames the whole queue under one link seq.
    CoalesceQueue& queue = coalesce_[to];
    const bool was_empty = queue.items.empty();
    queue.payload_bytes += payload.size();
    queue.items.push_back(QueuedItem{kind, std::move(payload), ctx.trace_context()});
    const bool size_hit =
        queue.items.size() >= options_.coalesce_max_items ||
        (options_.coalesce_max_bytes != 0 &&
         queue.payload_bytes >= options_.coalesce_max_bytes);
    if (size_hit) {
      flush_queue(ctx, to, /*trigger=*/0);
    } else if (was_empty) {
      queue.deadline = ctx.now() + options_.coalesce_max_age;
      ctx.set_timer(options_.coalesce_max_age,
                    kLinkTimerTag | kLinkFlushTimerBit | to);
    }
    return;
  }
  const std::uint64_t seq = ++next_seq_[to];
  transmit_frame(ctx, to, kLinkData, kind, seq, encode_data(seq, kind, payload));
}

void ReliableLink::transmit_frame(sim::Context& ctx, sim::NodeId to,
                                  std::uint32_t wire_kind, std::uint32_t inner_kind,
                                  std::uint64_t seq,
                                  std::vector<std::uint8_t> frame) {
  const std::uint64_t token = next_token_++;

  Pending pending;
  pending.to = to;
  pending.seq = seq;
  pending.kind = inner_kind;
  pending.wire_kind = wire_kind;
  pending.frame = std::move(frame);
  pending.rto = options_.initial_rto;
  pending.attempts = 1;
  pending.trace = ctx.trace_context();
  pending.last_sent = ctx.now();

  ctx.send(to, wire_kind, pending.frame);
  ctx.set_timer(pending.rto, kLinkTimerTag | token);
  token_by_dest_[{to, seq}] = token;
  buffer_bytes_ += pending.frame.size();
  pending_.emplace(token, std::move(pending));
  bump(&LinkStats::data_sent);
}

void ReliableLink::flush_queue(sim::Context& ctx, sim::NodeId to,
                               std::uint32_t trigger) {
  const auto queue_it = coalesce_.find(to);
  if (queue_it == coalesce_.end() || queue_it->second.items.empty()) return;
  // Swap out before transmitting: upper-layer reactions must enqueue
  // into a fresh queue, not the one being framed.
  CoalesceQueue queue;
  std::swap(queue, queue_it->second);

  const std::uint64_t seq = ++next_seq_[to];
  std::size_t frame_bytes = 8 + 4;
  for (const QueuedItem& item : queue.items) frame_bytes += 4 + util::encoded_size(item.payload);
  util::ByteWriter out(frame_bytes);
  out.put_u64(seq);
  out.put_u32(static_cast<std::uint32_t>(queue.items.size()));
  for (const QueuedItem& item : queue.items) {
    out.put_u32(item.kind);
    out.put_bytes(item.payload);
  }
  std::vector<std::uint8_t> frame = out.take();
  if (auto* sink = ctx.trace_sink()) {
    sink->on_event({obs::TraceEventType::kBatchFlush, ctx.now(), ctx.self(), to,
                    trigger, frame.size(), queue.items.size()});
  }
  // The frame rides the first queued item's context (the batch carrier;
  // docs/batching.md) — restore the caller's context afterwards.
  const obs::SpanContext saved = ctx.trace_context();
  ctx.set_trace_context(queue.items.front().trace);
  transmit_frame(ctx, to, kLinkBatchData, kLinkBatchData, seq, std::move(frame));
  ctx.set_trace_context(saved);
}

void ReliableLink::flush(sim::Context& ctx, sim::NodeId to) {
  flush_queue(ctx, to, /*trigger=*/2);
}

void ReliableLink::flush_all(sim::Context& ctx) {
  for (auto& [to, queue] : coalesce_) {
    (void)queue;
    flush_queue(ctx, to, /*trigger=*/2);
  }
}

std::size_t ReliableLink::queued(sim::NodeId to) const {
  const auto it = coalesce_.find(to);
  return it == coalesce_.end() ? 0 : it->second.items.size();
}

bool ReliableLink::on_message(sim::Context& ctx, const sim::Message& message) {
  if (message.kind == kLinkAck) {
    util::ByteReader reader(message.payload);
    const std::uint64_t seq = reader.get_u64();
    const auto key = std::make_pair(message.from, seq);
    auto token_it = token_by_dest_.find(key);
    if (token_it != token_by_dest_.end()) {
      const auto pending_it = pending_.find(token_it->second);
      if (pending_it != pending_.end()) {
        buffer_bytes_ -= pending_it->second.frame.size();
        pending_.erase(pending_it);
      }
      token_by_dest_.erase(token_it);
    }
    // Acks for already-settled seqs (duplicated ack, or ack after
    // exhaustion) are ignored; retransmit timers for erased entries
    // no-op when they fire.
    return true;
  }
  if (message.kind == kLinkBatchData) {
    util::ByteReader reader(message.payload);
    const std::uint64_t seq = reader.get_u64();
    const std::uint32_t count = reader.get_u32();

    util::ByteWriter ack(8);
    ack.put_u64(seq);
    ctx.send(message.from, kLinkAck, ack.take());
    bump(&LinkStats::acks_sent);

    Inbound& inbound = inbound_[message.from];
    const bool duplicate =
        seq <= inbound.floor || inbound.above.count(seq) != 0;
    if (duplicate) {
      bump(&LinkStats::duplicates_suppressed);
      if (auto* sink = ctx.trace_sink()) {
        sink->on_event({obs::TraceEventType::kLinkDuplicate, ctx.now(),
                        ctx.self(), message.from, kLinkBatchData, seq, count});
      }
      return true;
    }
    inbound.above.insert(seq);
    while (inbound.above.erase(inbound.floor + 1) != 0) ++inbound.floor;

    bump(&LinkStats::delivered);
    // Unpack in enqueue order: within one frame, per-sender FIFO is the
    // sender's queue order by construction.
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t inner_kind = reader.get_u32();
      std::vector<std::uint8_t> payload = reader.get_bytes();
      if (deliver_) {
        sim::Message inner;
        inner.from = message.from;
        inner.to = message.to;
        inner.kind = inner_kind;
        inner.payload = std::move(payload);
        deliver_(ctx, inner);
      }
    }
    return true;
  }
  if (message.kind != kLinkData) return false;

  util::ByteReader reader(message.payload);
  const std::uint64_t seq = reader.get_u64();
  const std::uint32_t inner_kind = reader.get_u32();

  // Ack every data frame, duplicates included: a duplicate usually means
  // the previous ack was lost.
  util::ByteWriter ack(8);
  ack.put_u64(seq);
  ctx.send(message.from, kLinkAck, ack.take());
  bump(&LinkStats::acks_sent);

  Inbound& inbound = inbound_[message.from];
  const bool duplicate =
      seq <= inbound.floor || inbound.above.count(seq) != 0;
  if (duplicate) {
    bump(&LinkStats::duplicates_suppressed);
    if (auto* sink = ctx.trace_sink()) {
      sink->on_event({obs::TraceEventType::kLinkDuplicate, ctx.now(), ctx.self(),
                      message.from, inner_kind, seq, 0});
    }
    return true;
  }
  inbound.above.insert(seq);
  while (inbound.above.erase(inbound.floor + 1) != 0) ++inbound.floor;

  bump(&LinkStats::delivered);
  if (deliver_) {
    sim::Message inner;
    inner.from = message.from;
    inner.to = message.to;
    inner.kind = inner_kind;
    const std::vector<std::uint8_t>& frame = message.payload;
    inner.payload = std::vector<std::uint8_t>(frame.begin() + kDataHeaderBytes, frame.end());
    deliver_(ctx, inner);
  }
  return true;
}

bool ReliableLink::on_timer(sim::Context& ctx, std::uint64_t timer_id) {
  if ((timer_id & kLinkTimerTag) == 0) return false;
  if ((timer_id & kLinkFlushTimerBit) != 0) {
    const auto to = static_cast<sim::NodeId>(
        timer_id & ~(kLinkTimerTag | kLinkFlushTimerBit));
    const auto it = coalesce_.find(to);
    // One timer per empty->nonempty transition; a size flush in between
    // makes this firing stale (the live queue armed a later deadline).
    if (it != coalesce_.end() && !it->second.items.empty() &&
        ctx.now() >= it->second.deadline) {
      flush_queue(ctx, to, /*trigger=*/1);
    }
    return true;
  }
  const std::uint64_t token = timer_id & ~kLinkTimerTag;
  auto it = pending_.find(token);
  if (it == pending_.end()) return true;  // acked since; stale timer

  Pending& pending = it->second;
  if (pending.attempts > options_.max_retransmits) {
    bump(&LinkStats::exhausted);
    if (auto* sink = ctx.trace_sink()) {
      sink->on_event({obs::TraceEventType::kLinkExhausted, ctx.now(), ctx.self(),
                      pending.to, pending.kind, pending.seq, pending.attempts});
    }
    failed_.push_back({pending.to, pending.seq, pending.kind, pending.attempts});
    token_by_dest_.erase({pending.to, pending.seq});
    buffer_bytes_ -= pending.frame.size();
    pending_.erase(it);
    return true;
  }

  ++pending.attempts;
  bump(&LinkStats::retransmits);
  if (auto* sink = ctx.trace_sink()) {
    sink->on_event({obs::TraceEventType::kLinkRetransmit, ctx.now(), ctx.self(),
                    pending.to, pending.kind, pending.seq, pending.attempts});
    if (pending.trace.valid()) {
      // One retransmit span per resend, chained: each parents at the
      // previous transmission's context, and the resent frame rides the
      // new span so its net_hop lands underneath it.
      obs::Span rt;
      rt.type = obs::SpanType::kRetransmit;
      rt.trace_id = pending.trace.trace_id;
      rt.span_id = ctx.new_span_id();
      rt.parent_span = pending.trace.span_id;
      rt.begin = pending.last_sent;
      rt.end = ctx.now();
      rt.node = ctx.self();
      rt.peer = pending.to;
      rt.kind = pending.kind;
      rt.id = pending.seq;
      rt.arg = pending.attempts;
      sink->on_span(rt);
      pending.trace.span_id = rt.span_id;
    }
  }
  pending.last_sent = ctx.now();
  ctx.set_trace_context(pending.trace);
  ctx.send(pending.to, pending.wire_kind, pending.frame);
  const double next_rto = static_cast<double>(pending.rto) * options_.backoff;
  pending.rto = next_rto >= static_cast<double>(options_.max_rto)
                    ? options_.max_rto
                    : static_cast<sim::SimTime>(next_rto);
  ctx.set_timer(pending.rto, kLinkTimerTag | token);
  return true;
}

}  // namespace mocc::fault
