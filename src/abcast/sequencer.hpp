// Fixed-sequencer atomic broadcast.
//
// Node 0 is the sequencer. A broadcast is submitted to the sequencer,
// which stamps it with the next global sequence number and fans it out;
// receivers hold out-of-order arrivals until the gap fills. Local
// submissions and deliveries at the sequencer skip the network (a real
// co-located sequencer pays no wire cost either), so message counts stay
// honest: a broadcast costs (n-1) fan-out messages plus one submit when
// the origin is not the sequencer.
//
// Group commit (docs/batching.md): with Options::batch_max > 1 the
// sequencer gathers submissions into a pending batch and assigns one
// CONTIGUOUS position block per flush, fanning the whole block out as a
// single kDeliverBatch frame — (n-1) messages per batch instead of per
// update. A batch flushes when it reaches batch_max items (size trigger)
// or when its oldest item ages past batch_age virtual-time ticks (age
// trigger, armed via the host-forwarded kBatchTimerId timer). Positions
// inside a block follow submission-arrival order, so the agreed total
// order and per-sender FIFO are exactly what the unbatched stamping
// would have produced for the same arrival sequence.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "abcast/abcast.hpp"

namespace mocc::abcast {

class SequencerAbcast final : public AtomicBroadcast {
 public:
  // Fixed-sequencer kinds; mocc-lint's msg-flow closure keeps each one
  // emitted and handled, and checks that kBatchTimerId below retains its
  // on_timer route in sequencer.cpp.
  static constexpr std::uint32_t kSubmit = sim::wire::abcast_kind(0);
  static constexpr std::uint32_t kDeliver = sim::wire::abcast_kind(1);
  /// Group-commit fan-out: one frame carrying a contiguous position
  /// block (u64 first seq | u32 count | count x (u32 origin | payload)).
  static constexpr std::uint32_t kDeliverBatch = sim::wire::abcast_kind(2);
  static constexpr sim::NodeId kSequencerNode = 0;
  /// Age-flush timer id (bit 61). The reliable link owns bit 62
  /// (fault::kLinkTimerTag) and hosts route timers link-first, so the
  /// two layers share an actor's timer namespace without collisions.
  static constexpr std::uint64_t kBatchTimerId = 1ULL << 61;

  struct Options {
    /// Deliberate protocol mutation for mocc-check validation (never set
    /// in production): the sequencer fans out the first two positions
    /// with swapped sequence labels while delivering locally in true
    /// order, so receivers and the sequencer disagree on the total order.
    bool mutate_swap_first_two = false;
    /// Group commit: > 1 makes the sequencer gather submissions and
    /// assign a contiguous position block of up to batch_max per flush.
    std::size_t batch_max = 1;
    /// Age flush trigger: a pending batch whose first item is this many
    /// virtual-time ticks old flushes even if not full. Must be >= 1
    /// when batching — the age timer is what keeps partial batches live.
    sim::SimTime batch_age = 8;
  };

  SequencerAbcast() = default;
  explicit SequencerAbcast(Options options);

  void broadcast(sim::Context& ctx, std::vector<std::uint8_t> payload) override;
  bool on_message(sim::Context& ctx, const sim::Message& message) override;
  bool on_timer(sim::Context& ctx, std::uint64_t timer_id) override;
  std::string name() const override { return "sequencer"; }

 private:
  /// Sequencer side: stamp and fan out (or enqueue when batching).
  void sequence_and_fan_out(sim::Context& ctx, sim::NodeId origin,
                            std::vector<std::uint8_t> payload);
  /// Group commit: assign the pending batch its position block, fan it
  /// out as one frame, deliver locally. `trigger`: 0=size, 1=age.
  void flush_batch(sim::Context& ctx, std::uint32_t trigger);
  /// Receiver side: in-order delivery with gap buffering. `seen_at` is
  /// the abcast_agree span begin — arrival time for wire deliveries,
  /// submission-enqueue time for the sequencer's own batched items (the
  /// group-commit wait is agreement latency, not queueing).
  void accept(sim::Context& ctx, std::uint64_t seq, sim::NodeId origin,
              std::vector<std::uint8_t> payload, sim::SimTime seen_at);
  /// Delivers position next_seq_to_deliver_ (traced from `trace`), then
  /// restores the context to `outer`.
  void deliver(sim::Context& ctx, sim::NodeId origin,
               const std::vector<std::uint8_t>& payload, obs::SpanContext trace,
               sim::SimTime seen_at, obs::SpanContext outer);

  struct PendingDelivery {
    sim::NodeId origin = 0;
    std::vector<std::uint8_t> payload;
    obs::SpanContext trace;     ///< context when first seen at this node
    sim::SimTime seen_at = 0;  ///< abcast_agree span begin
  };

  /// One submission awaiting its position block (sequencer only). The
  /// per-item trace context keeps each local delivery's abcast_agree
  /// span rooted in its own m-operation's trace; the fan-out frame
  /// carries the FIRST item's context (the batch carrier —
  /// docs/batching.md "Tracing batched frames").
  struct BatchItem {
    sim::NodeId origin = 0;
    std::vector<std::uint8_t> payload;
    obs::SpanContext trace;
    sim::SimTime seen_at = 0;
  };

  Options options_;
  std::uint64_t next_seq_to_assign_ = 0;   // sequencer only
  std::uint64_t next_seq_to_deliver_ = 0;  // every node
  std::map<std::uint64_t, PendingDelivery> pending_;
  std::vector<BatchItem> batch_;        // sequencer only, batching on
  sim::SimTime batch_deadline_ = 0;     ///< age timers older than this are stale
};

}  // namespace mocc::abcast
