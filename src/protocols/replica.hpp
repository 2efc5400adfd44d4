// Common replica interface.
//
// One replica per simulated process. Drivers invoke m-operations
// (MScript programs) at a replica and receive an asynchronous completion;
// the replica records the execution with the shared ExecutionRecorder.
// Node ids and the paper's process ids coincide.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "abcast/abcast.hpp"
#include "core/moperation.hpp"
#include "core/types.hpp"
#include "fault/reliable_link.hpp"
#include "mscript/vm.hpp"
#include "obs/trace.hpp"
#include "protocols/recorder.hpp"
#include "sim/simulator.hpp"
#include "sim/wire_kinds.hpp"

namespace mocc::protocols {

/// Protocol-layer message kinds (range [200, 299]; the simulator-wide
/// partition lives in sim/wire_kinds.hpp).
inline constexpr std::uint32_t kProtocolKindFirst = sim::wire::kProtocolsFirst;

struct InvocationOutcome {
  core::MOpId id = 0;
  mscript::Value return_value = 0;
  core::Time invoke = 0;
  core::Time response = 0;
};

using ResponseFn = std::function<void(const InvocationOutcome&)>;

/// Emits an m-operation lifecycle trace event (kMOpInvoke with arg = "is
/// update", kMOpRespond with arg = invocation time) when the simulator
/// has a sink attached; free otherwise. Every replica protocol calls this
/// at its invoke and respond points so traces are protocol-agnostic.
inline void trace_mop(sim::Context& ctx, obs::TraceEventType type, core::MOpId id,
                      std::uint64_t arg) {
  if (auto* sink = ctx.trace_sink()) {
    sink->on_event({type, ctx.now(), ctx.self(), 0, 0, id, arg});
  }
}

/// Closes the causal trace of one m-operation at its response point:
/// emits one op_read / op_write event per operation in program order (the
/// audit trail trace_query rebuilds the history from — reads carry their
/// reads-from writer in `peer`), then the root `mop` span covering
/// [invoke, respond]. `root` is what Context::begin_trace returned at the
/// invocation; invalid (tracing off) makes this a no-op. The span's arg
/// packs `is_update` in bit 0 and `ww_seq + 1` in the remaining bits
/// (0 = no ww position), which is enough for the analyzer to rebuild the
/// ~ww synchronization order.
inline void trace_mop_span(sim::Context& ctx, obs::SpanContext root, core::MOpId id,
                           core::Time invoke, bool is_update,
                           std::optional<std::uint64_t> ww_seq,
                           const std::vector<core::Operation>& ops) {
  auto* sink = ctx.trace_sink();
  if (sink == nullptr || !root.valid()) return;
  for (const core::Operation& op : ops) {
    obs::TraceEvent event;
    event.type = op.type == core::OpType::kRead ? obs::TraceEventType::kOpRead
                                                : obs::TraceEventType::kOpWrite;
    event.time = ctx.now();
    event.node = ctx.self();
    event.peer = op.type == core::OpType::kRead ? op.reads_from : 0;
    event.kind = op.object;
    event.id = id;
    event.arg = static_cast<std::uint64_t>(op.value);
    sink->on_event(event);
  }
  obs::Span span;
  span.type = obs::SpanType::kMOp;
  span.trace_id = root.trace_id;
  span.span_id = root.span_id;
  span.parent_span = 0;
  span.begin = invoke;
  span.end = ctx.now();
  span.node = ctx.self();
  span.id = id;
  span.arg = (is_update ? 1u : 0u) |
             ((ww_seq.has_value() ? *ww_seq + 1 : 0) << 1);
  sink->on_span(span);
}

class Replica : public sim::Actor {
 public:
  /// Starts executing `program` as one m-operation of this process.
  /// `on_response` fires exactly once, at response time. At most one
  /// invocation may be outstanding per replica (processes are sequential
  /// threads of control, §2.1); drivers are closed-loop by construction.
  virtual void invoke(sim::Context& ctx, mscript::Program program,
                      ResponseFn on_response) = 0;

  /// Attaches a reliable-delivery layer (owned, one per node). From then
  /// on every network send of this replica — and of the abcast instance
  /// it hosts — goes through ack + retransmit, and incoming link frames
  /// are unwrapped before protocol dispatch. Null (the default) is the
  /// paper's reliable-network model: sends go raw.
  void set_reliable_link(std::unique_ptr<fault::ReliableLink> link) {
    link_ = std::move(link);
    if (link_ != nullptr) {
      link_->set_deliver([this](sim::Context& ctx, const sim::Message& message) {
        handle_delivered(ctx, message);
      });
    }
  }
  fault::ReliableLink* reliable_link() const { return link_.get(); }

  /// Link frames (data/acks) are consumed here; everything else — and
  /// every payload the link unwraps — reaches handle_delivered.
  void on_message(sim::Context& ctx, const sim::Message& message) final {
    if (link_ != nullptr && link_->on_message(ctx, message)) return;
    handle_delivered(ctx, message);
  }

  void on_timer(sim::Context& ctx, std::uint64_t timer_id) final {
    if (link_ != nullptr && link_->on_timer(ctx, timer_id)) return;
    if (abcast_timers_ != nullptr && abcast_timers_->on_timer(ctx, timer_id)) {
      return;
    }
    handle_timer(ctx, timer_id);
  }

 protected:
  /// Subclasses hosting an atomic broadcast register it here (alongside
  /// wiring its deliver callback) so its timers — group-commit flush
  /// deadlines — get routed: link first, then abcast, then handle_timer.
  void route_timers_to_abcast(abcast::AtomicBroadcast* abcast) {
    abcast_timers_ = abcast;
  }

  /// Protocol-level dispatch, called once per application message
  /// whether it arrived raw or via the reliable link.
  virtual void handle_delivered(sim::Context& ctx, const sim::Message& message) = 0;

  virtual void handle_timer(sim::Context& ctx, std::uint64_t timer_id) {
    (void)ctx;
    (void)timer_id;
  }

  /// Send indirection for protocol code: reliable when a link is
  /// attached, plain Context::send otherwise.
  void net_send(sim::Context& ctx, sim::NodeId to, std::uint32_t kind,
                std::vector<std::uint8_t> payload) {
    if (link_ != nullptr) {
      link_->send(ctx, to, kind, std::move(payload));
      return;
    }
    ctx.send(to, kind, std::move(payload));
  }

  void net_send_to_others(sim::Context& ctx, std::uint32_t kind,
                          std::vector<std::uint8_t> payload) {
    if (link_ == nullptr) {
      ctx.send_to_others(kind, std::move(payload));
      return;
    }
    for (sim::NodeId to = 0; to < ctx.num_nodes(); ++to) {
      if (to != ctx.self()) link_->send(ctx, to, kind, payload);
    }
  }

 private:
  std::unique_ptr<fault::ReliableLink> link_;
  abcast::AtomicBroadcast* abcast_timers_ = nullptr;  ///< not owned
};

/// StoreView against a replica-local copy that records accesses at
/// m-operation granularity: reads capture the last-writer m-operation of
/// the copy they read, writes update value and last-writer.
class RecordingStore final : public mscript::StoreView {
 public:
  /// Records the accesses of `program` when `record` is set. A replica
  /// replaying another process's update passes false: the origin keeps
  /// that m-operation's record.
  RecordingStore(std::vector<core::Value>& values, std::vector<core::MOpId>& last_writer,
                 core::MOpId self, const mscript::Program& program, bool record = true);

  mscript::Value read(mscript::ObjectId object) override;
  void write(mscript::ObjectId object, mscript::Value value) override;

  /// Operations in program order, reads annotated with reads-from.
  std::vector<core::Operation> take_ops() { return std::move(ops_); }

 private:
  std::vector<core::Value>& values_;
  std::vector<core::MOpId>& last_writer_;
  core::MOpId self_;
  bool record_;
  std::vector<core::Operation> ops_;
};

}  // namespace mocc::protocols
