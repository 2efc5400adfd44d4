// Atomic (total-order) broadcast.
//
// Both protocols in §5 hinge on one primitive: "we use atomic broadcast
// to achieve our objective … atomic broadcast ensures that all processes
// apply all update m-operations in the same order". The paper treats it
// as given; this library provides two implementations so the stack is
// self-contained and their costs can be compared (experiment E2):
//
//   - SequencerAbcast: a fixed sequencer (node 0) assigns a global
//     sequence number; receivers deliver in sequence order. One hop to
//     the sequencer + n-1 fan-out per broadcast; the sequencer is a
//     throughput bottleneck and a single point of serialization.
//   - IsisAbcast: decentralized agreed order via Lamport-clock proposals
//     (the ISIS / Birman-Joseph algorithm): every node proposes a
//     timestamp, the origin picks the max and announces it; messages
//     deliver in final-timestamp order once no pending message could
//     precede them. 3(n-1) messages per broadcast, no bottleneck node.
//
// Guarantees (asserted by tests across random seeds and delay models):
// validity (own broadcasts deliver), agreement (every node delivers the
// same set), total order (identical delivery sequence everywhere), and
// per-sender FIFO integrity.
//
// A layer consumes messages whose kind falls in its reserved range; the
// composite actor in src/protocols routes accordingly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/reliable_link.hpp"
#include "sim/simulator.hpp"
#include "sim/wire_kinds.hpp"

namespace mocc::abcast {

/// Message-kind range reserved for the abcast layer (sim/wire_kinds.hpp
/// holds the simulator-wide partition).
inline constexpr std::uint32_t kAbcastKindFirst = sim::wire::kAbcastFirst;
inline constexpr std::uint32_t kAbcastKindLast = sim::wire::kAbcastLast;

class AtomicBroadcast {
 public:
  /// origin = broadcasting node; payload = opaque application bytes.
  /// The context is the live one of the event that triggered delivery
  /// (never stored — contexts are stack-scoped per event).
  using DeliverFn = std::function<void(sim::Context& ctx, sim::NodeId origin,
                                       const std::vector<std::uint8_t>& payload)>;

  virtual ~AtomicBroadcast() = default;

  void set_deliver(DeliverFn deliver) { deliver_ = std::move(deliver); }

  virtual void on_start(sim::Context& ctx) { (void)ctx; }

  /// Initiates total-order broadcast; the payload is eventually delivered
  /// at EVERY node (including the origin) in the agreed order.
  virtual void broadcast(sim::Context& ctx, std::vector<std::uint8_t> payload) = 0;

  /// Consumes abcast-layer messages; returns false for foreign kinds.
  virtual bool on_message(sim::Context& ctx, const sim::Message& message) = 0;

  /// Consumes abcast-layer timers (batch flush deadlines); returns false
  /// for foreign timer ids. Hosts forward timers the reliable link did
  /// not claim here before their own handler.
  virtual bool on_timer(sim::Context& ctx, std::uint64_t timer_id) {
    (void)ctx;
    (void)timer_id;
    return false;
  }

  virtual std::string name() const = 0;

  /// Routes every network send through `link` (not owned; the hosting
  /// replica owns one link per node and shares it across layers). Null —
  /// the default — sends raw, assuming the reliable network of the
  /// paper's model.
  void set_reliable_link(fault::ReliableLink* link) { link_ = link; }

 protected:
  /// Send indirection used by the concrete algorithms: raw Context::send
  /// when no link is attached, reliable (ack + retransmit) otherwise.
  void send(sim::Context& ctx, sim::NodeId to, std::uint32_t kind,
            std::vector<std::uint8_t> payload) {
    if (link_ != nullptr) {
      link_->send(ctx, to, kind, std::move(payload));
      return;
    }
    ctx.send(to, kind, std::move(payload));
  }

  void send_to_others(sim::Context& ctx, std::uint32_t kind,
                      std::vector<std::uint8_t> payload) {
    if (link_ == nullptr) {
      ctx.send_to_others(kind, std::move(payload));
      return;
    }
    for (sim::NodeId to = 0; to < ctx.num_nodes(); ++to) {
      if (to != ctx.self()) link_->send(ctx, to, kind, payload);
    }
  }

  DeliverFn deliver_;
  fault::ReliableLink* link_ = nullptr;
};

/// Factory: one instance per node.
using AbcastFactory = std::function<std::unique_ptr<AtomicBroadcast>()>;

AbcastFactory make_abcast_factory(const std::string& name);

}  // namespace mocc::abcast
