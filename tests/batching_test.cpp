// Hot-path batching layer (docs/batching.md): sequencer group-commit,
// reliable-link message coalescing, and mlin query rounds.
//
// Flush-trigger edge cases are covered at both layers — an age timer
// must flush a single pending item, a size trigger at the exact boundary
// must not leave a stale-timer double flush behind, and a flush finding
// an empty queue must be a no-op. The framing round-trip sweep pushes
// coalesced frames through a dropping + duplicating network across 100
// seeds and asserts exactly-once, per-sender-FIFO delivery. End-to-end
// sweeps assert the acceptance invariants: the P5.x audit stays clean
// with every batching knob on, the span forest stays well-formed with
// exact phase attribution, and batching actually removes messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/system.hpp"
#include "fault/fault.hpp"
#include "fault/reliable_link.hpp"
#include "mscript/library.hpp"
#include "obs/analysis.hpp"
#include "obs/trace.hpp"
#include "protocols/workload.hpp"
#include "sim/delay.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"

namespace mocc {
namespace {

using core::Condition;
using protocols::InvocationOutcome;

std::size_t count_events(const std::vector<obs::TraceEvent>& events,
                         obs::TraceEventType type) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [type](const obs::TraceEvent& e) { return e.type == type; }));
}

// ------------------------------------------------- sequencer group-commit

/// All submitters hand their update to the sequencer in the same tick
/// ("constant" delay): the batch fills to the exact size boundary and
/// flushes by size, assigning one contiguous position block.
TEST(SequencerBatching, SizeTriggerAssignsContiguousBlockAtExactBoundary) {
  api::SystemConfig config;
  config.num_processes = 5;
  config.num_objects = 4;
  config.protocol = "mseq";
  config.broadcast = "sequencer";
  config.delay = "constant";
  config.batching.abcast_batch_max = 4;
  config.batching.abcast_batch_age = 1000;  // age must never fire here
  obs::RingBufferSink sink(std::size_t{1} << 14);
  api::System system(config);
  system.set_trace_sink(&sink);

  // Four non-sequencer processes submit at the same instant; constant
  // delay lands all four submissions at node 0 in one tick.
  for (core::ProcessId p = 1; p <= 4; ++p) {
    system.submit(p, 1, mscript::lib::make_write(p % config.num_objects, 7));
  }
  system.run();

  const auto events = sink.events();
  std::vector<obs::TraceEvent> assigns;
  for (const auto& e : events) {
    if (e.type == obs::TraceEventType::kBatchAssign) assigns.push_back(e);
  }
  ASSERT_EQ(assigns.size(), 1u);
  EXPECT_EQ(assigns[0].node, 0u);
  EXPECT_EQ(assigns[0].kind, 0u);  // size trigger
  EXPECT_EQ(assigns[0].id, 0u);    // first position of the block
  EXPECT_EQ(assigns[0].arg, 4u);   // block size
  EXPECT_TRUE(system.audit().ok);
  EXPECT_TRUE(system.check_fast(Condition::kMSequentialConsistency).admissible);
}

/// One lone update must not wait forever: the age deadline flushes a
/// partial batch of one.
TEST(SequencerBatching, AgeTriggerFlushesSinglePendingUpdate) {
  api::SystemConfig config;
  config.num_processes = 3;
  config.num_objects = 2;
  config.protocol = "mseq";
  config.broadcast = "sequencer";
  config.delay = "constant";
  config.batching.abcast_batch_max = 8;
  config.batching.abcast_batch_age = 5;
  obs::RingBufferSink sink(std::size_t{1} << 14);
  api::System system(config);
  system.set_trace_sink(&sink);

  std::int64_t read_value = -1;
  system.submit(1, 1, mscript::lib::make_write(0, 9));
  system.submit(2, 10'000, mscript::lib::make_read(0),
                [&](const InvocationOutcome& out) { read_value = out.return_value; });
  system.run();

  EXPECT_EQ(read_value, 9);  // the lone update delivered everywhere
  const auto events = sink.events();
  std::vector<obs::TraceEvent> assigns;
  for (const auto& e : events) {
    if (e.type == obs::TraceEventType::kBatchAssign) assigns.push_back(e);
  }
  ASSERT_EQ(assigns.size(), 1u);
  EXPECT_EQ(assigns[0].kind, 1u);  // age trigger
  EXPECT_EQ(assigns[0].arg, 1u);   // batch of one
  EXPECT_TRUE(system.audit().ok);
}

/// A size flush empties the batch while the age timer armed at first
/// enqueue is still in flight; when it fires it must find the queue
/// empty (or refilled with a fresh deadline) and not double-flush.
TEST(SequencerBatching, StaleAgeTimerAfterSizeFlushIsNoOp) {
  api::SystemConfig config;
  config.num_processes = 3;
  config.num_objects = 2;
  config.protocol = "mseq";
  config.broadcast = "sequencer";
  config.delay = "constant";
  config.batching.abcast_batch_max = 2;
  config.batching.abcast_batch_age = 3;
  obs::RingBufferSink sink(std::size_t{1} << 14);
  api::System system(config);
  system.set_trace_sink(&sink);

  system.submit(1, 1, mscript::lib::make_write(0, 1));
  system.submit(2, 1, mscript::lib::make_write(1, 2));
  system.run();

  const auto events = sink.events();
  EXPECT_EQ(count_events(events, obs::TraceEventType::kBatchAssign), 1u);
  EXPECT_TRUE(system.audit().ok);
}

// ------------------------------------------------- link-level coalescing

/// Hosts one ReliableLink endpoint; queues sends issued at start and
/// records upward deliveries (same shape as reliable_link_test.cpp).
class LinkHost final : public sim::Actor {
 public:
  explicit LinkHost(fault::ReliableLink::Options options = {}) : link_(options) {
    link_.set_deliver([this](sim::Context&, const sim::Message& message) {
      delivered.push_back(message);
      delivered_frame.push_back(frame_counter_);
    });
  }

  void queue_send(sim::NodeId to, std::uint32_t kind,
                  std::vector<std::uint8_t> payload) {
    outbox_.push_back({to, kind, std::move(payload)});
  }
  void flush_on_start(sim::NodeId to) { flush_target_ = to; }

  void on_start(sim::Context& ctx) override {
    for (auto& out : outbox_) {
      link_.send(ctx, out.to, out.kind, std::move(out.payload));
    }
    outbox_.clear();
    if (flush_target_ >= 0) {
      link_.flush(ctx, static_cast<sim::NodeId>(flush_target_));
    }
  }

  void on_message(sim::Context& ctx, const sim::Message& message) override {
    ++frame_counter_;  // deliveries below share this wire frame
    EXPECT_TRUE(link_.on_message(ctx, message)) << "foreign kind " << message.kind;
  }

  void on_timer(sim::Context& ctx, std::uint64_t timer_id) override {
    EXPECT_TRUE(link_.on_timer(ctx, timer_id));
  }

  fault::ReliableLink& link() { return link_; }
  std::vector<sim::Message> delivered;
  /// delivered_frame[i] identifies the wire frame delivered[i] came from.
  std::vector<std::uint64_t> delivered_frame;

 private:
  struct Outbound {
    sim::NodeId to;
    std::uint32_t kind;
    std::vector<std::uint8_t> payload;
  };
  fault::ReliableLink link_;
  std::vector<Outbound> outbox_;
  int flush_target_ = -1;
  std::uint64_t frame_counter_ = 0;
};

std::vector<std::uint8_t> payload_of(std::uint64_t value) {
  util::ByteWriter w;
  w.put_u64(value);
  return w.take();
}

std::uint64_t value_of(const sim::Message& message) {
  util::ByteReader r(message.payload);
  return r.get_u64();
}

TEST(LinkCoalescing, SizeTriggerEmitsOneFrameAtExactBoundary) {
  sim::Simulator sim(sim::make_delay_model("lan"), 11);
  fault::ReliableLink::Options options;
  options.coalesce_max_items = 4;
  options.coalesce_max_age = 1000;  // age must never fire here
  options.initial_rto = 100;        // ack wins: exactly one wire frame
  auto sender = std::make_unique<LinkHost>(options);
  auto receiver = std::make_unique<LinkHost>();
  auto* tx = sender.get();
  auto* rx = receiver.get();
  for (std::uint64_t i = 0; i < 4; ++i) tx->queue_send(1, 200, payload_of(i));
  sim.add_node(std::move(sender));
  sim.add_node(std::move(receiver));
  obs::RingBufferSink sink(1 << 12);
  sim.set_trace_sink(&sink);
  sim.run();

  ASSERT_EQ(rx->delivered.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rx->delivered[i].kind, 200u);
    EXPECT_EQ(value_of(rx->delivered[i]), i);  // enqueue order preserved
  }
  // One kLinkBatchData frame on the wire (plus its ack), not four.
  EXPECT_EQ(sim.traffic().messages_by_kind.count(fault::kLinkData), 0u);
  EXPECT_EQ(sim.traffic().messages_by_kind.at(fault::kLinkBatchData), 1u);
  const auto events = sink.events();
  std::vector<obs::TraceEvent> flushes;
  for (const auto& e : events) {
    if (e.type == obs::TraceEventType::kBatchFlush) flushes.push_back(e);
  }
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0].kind, 0u);  // size trigger
  EXPECT_EQ(flushes[0].arg, 4u);
  EXPECT_EQ(flushes[0].peer, 1u);
}

TEST(LinkCoalescing, AgeTriggerFlushesSingleItem) {
  sim::Simulator sim(sim::make_delay_model("lan"), 12);
  fault::ReliableLink::Options options;
  options.coalesce_max_items = 8;
  options.coalesce_max_age = 6;
  auto sender = std::make_unique<LinkHost>(options);
  auto receiver = std::make_unique<LinkHost>();
  auto* tx = sender.get();
  auto* rx = receiver.get();
  tx->queue_send(1, 201, payload_of(42));
  sim.add_node(std::move(sender));
  sim.add_node(std::move(receiver));
  obs::RingBufferSink sink(1 << 12);
  sim.set_trace_sink(&sink);
  sim.run();

  ASSERT_EQ(rx->delivered.size(), 1u);
  EXPECT_EQ(value_of(rx->delivered[0]), 42u);
  const auto events = sink.events();
  std::vector<obs::TraceEvent> flushes;
  for (const auto& e : events) {
    if (e.type == obs::TraceEventType::kBatchFlush) flushes.push_back(e);
  }
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0].kind, 1u);  // age trigger
  EXPECT_EQ(flushes[0].arg, 1u);
}

TEST(LinkCoalescing, ByteThresholdTriggersBeforeItemCount) {
  sim::Simulator sim(sim::make_delay_model("lan"), 13);
  fault::ReliableLink::Options options;
  options.coalesce_max_items = 100;
  options.coalesce_max_bytes = 16;  // two 8-byte payloads cross it
  options.coalesce_max_age = 1000;
  auto sender = std::make_unique<LinkHost>(options);
  auto receiver = std::make_unique<LinkHost>();
  auto* rx = receiver.get();
  sender->queue_send(1, 202, payload_of(1));
  sender->queue_send(1, 202, payload_of(2));
  sim.add_node(std::move(sender));
  sim.add_node(std::move(receiver));
  obs::RingBufferSink sink(1 << 12);
  sim.set_trace_sink(&sink);
  sim.run();

  ASSERT_EQ(rx->delivered.size(), 2u);
  const auto events = sink.events();
  std::vector<obs::TraceEvent> flushes;
  for (const auto& e : events) {
    if (e.type == obs::TraceEventType::kBatchFlush) flushes.push_back(e);
  }
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0].kind, 0u);  // size/bytes trigger
  EXPECT_EQ(flushes[0].arg, 2u);
}

TEST(LinkCoalescing, ExplicitFlushOfEmptyQueueIsNoOp) {
  sim::Simulator sim(sim::make_delay_model("lan"), 14);
  fault::ReliableLink::Options options;
  options.coalesce_max_items = 4;
  auto sender = std::make_unique<LinkHost>(options);
  auto receiver = std::make_unique<LinkHost>();
  auto* rx = receiver.get();
  sender->flush_on_start(1);  // nothing queued: must emit nothing
  sim.add_node(std::move(sender));
  sim.add_node(std::move(receiver));
  obs::RingBufferSink sink(1 << 12);
  sim.set_trace_sink(&sink);
  sim.run();

  EXPECT_TRUE(rx->delivered.empty());
  EXPECT_EQ(sim.traffic().messages, 0u);
  EXPECT_EQ(count_events(sink.events(), obs::TraceEventType::kBatchFlush), 0u);
}

/// Acceptance sweep: coalesced frames through a dropping + duplicating
/// network, 100 seeds. Batch framing must survive retransmission and
/// receiver dedup with the link's delivery contract intact: every
/// payload arrives EXACTLY ONCE, and items of one frame unwrap in
/// enqueue order. Frames themselves deliver in network-arrival order
/// (the link never reordered; see the header comment) — end-to-end
/// per-sender FIFO is the abcast layer's job and is covered by the
/// BatchingEndToEnd audit sweeps below.
TEST(LinkCoalescing, FramingRoundTripsUnderDropAndDuplicateAcross100Seeds) {
  constexpr int kMessages = 40;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Simulator sim(sim::make_delay_model("lan"), seed);
    fault::ReliableLink::Options options;
    options.coalesce_max_items = 4;
    options.coalesce_max_age = 3;
    options.initial_rto = 40;
    auto sender = std::make_unique<LinkHost>(options);
    auto receiver = std::make_unique<LinkHost>();
    auto* tx = sender.get();
    auto* rx = receiver.get();
    for (int i = 0; i < kMessages; ++i) {
      tx->queue_send(1, 210, payload_of(static_cast<std::uint64_t>(i)));
    }
    sim.add_node(std::move(sender));
    sim.add_node(std::move(receiver));

    fault::FaultPlanConfig fault_config;
    fault_config.seed = seed * 977;
    fault_config.default_link.drop_rate = 0.2;
    fault_config.default_link.duplicate_rate = 0.1;
    fault::FaultPlan plan(fault_config);
    sim.set_fault_injector(&plan);
    sim.run();

    ASSERT_EQ(rx->delivered.size(), static_cast<std::size_t>(kMessages));
    std::vector<bool> seen(kMessages, false);
    for (std::size_t i = 0; i < rx->delivered.size(); ++i) {
      const auto value = value_of(rx->delivered[i]);
      ASSERT_LT(value, static_cast<std::uint64_t>(kMessages));
      EXPECT_FALSE(seen[value]) << "value " << value << " delivered twice";
      seen[value] = true;
      // Intra-frame order: consecutive deliveries from the same wire
      // frame carry strictly increasing enqueue ranks.
      if (i > 0 && rx->delivered_frame[i] == rx->delivered_frame[i - 1]) {
        EXPECT_GT(value, value_of(rx->delivered[i - 1]))
            << "frame items unwrapped out of enqueue order at index " << i;
      }
    }
    EXPECT_TRUE(tx->link().failed().empty());
    EXPECT_EQ(tx->link().in_flight(), 0u);
    EXPECT_EQ(tx->link().queued(1), 0u);  // everything flushed by drain
  }
}

// ------------------------------------------------------- mlin query rounds

/// Query batching serializes each process's queries into shared rounds;
/// the merged copy must stay fresh enough that the P5.x audit and the
/// m-linearizability fast check remain clean across seeds and both reply
/// modes.
TEST(QueryBatching, MLinRoundsStayMLinearizableAcrossSeeds) {
  for (const char* protocol : {"mlin", "mlin-narrow"}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(std::string(protocol) + "/seed" + std::to_string(seed));
      api::SystemConfig config;
      config.num_processes = 3;
      config.num_objects = 8;
      config.protocol = protocol;
      config.delay = "lan";
      config.seed = seed;
      config.batching.batch_queries = true;
      api::System system(config);
      protocols::WorkloadParams params;
      params.ops_per_process = 8;
      params.update_ratio = 0.4;
      const auto report = system.run_workload(params);
      EXPECT_EQ(report.queries + report.updates, 24u);
      EXPECT_TRUE(system.audit().ok);
      EXPECT_TRUE(system.check_fast(Condition::kMLinearizability).admissible);
    }
  }
}

// ----------------------------------------------------------- end to end

api::SystemConfig batched_config(const std::string& protocol, std::uint64_t seed,
                                 bool faults) {
  api::SystemConfig config;
  config.protocol = protocol;
  config.num_processes = 3;
  config.num_objects = 8;
  config.delay = "lan";
  config.seed = seed;
  config.reliable_link = true;
  config.link.initial_rto = 40;
  if (protocol != "locking") {
    config.batching.abcast_batch_max = 4;
    config.batching.abcast_batch_age = 6;
  }
  config.batching.link_batch_items = 3;
  config.batching.link_batch_age = 3;
  config.batching.batch_queries = protocol == "mlin";
  if (faults) {
    config.faults.seed = seed ^ 0x9e3779b97f4a7c15ULL;
    config.faults.default_link.drop_rate = 0.05;
    config.faults.default_link.duplicate_rate = 0.05;
  }
  return config;
}

/// Acceptance: with every batching knob on — group-commit, coalescing,
/// query rounds — over clean and faulty networks, the audit stays green,
/// the trace round-trips into a well-formed forest, and phase
/// attribution still sums exactly to end-to-end latency.
TEST(BatchingEndToEnd, AuditCleanAndForestWellFormedWithAllKnobsOn) {
  for (const char* protocol : {"mseq", "mlin"}) {
    for (const bool faults : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 15; ++seed) {
        SCOPED_TRACE(std::string(protocol) + (faults ? "/faults" : "/clean") +
                     "/seed" + std::to_string(seed));
        const api::SystemConfig config = batched_config(protocol, seed, faults);
        obs::RingBufferSink sink(std::size_t{1} << 18);
        api::System system(config);
        system.set_trace_sink(&sink);
        protocols::WorkloadParams params;
        params.ops_per_process = 6;
        params.update_ratio = 0.5;
        system.run_workload(params);

        EXPECT_TRUE(system.audit().ok);
        const core::Condition condition = api::claimed_condition(protocol);
        EXPECT_TRUE(system.check_fast(condition).admissible);

        std::stringstream jsonl;
        obs::write_trace_jsonl(jsonl, sink);
        obs::TraceFile trace;
        std::string error;
        ASSERT_TRUE(obs::load_trace_jsonl(jsonl, &trace, &error)) << error;
        obs::Forest forest;
        ASSERT_TRUE(obs::build_forest(trace, &forest, &error)) << error;
        const auto mops = obs::attribute_latency(forest);
        EXPECT_EQ(mops.size(), system.history().size());
        for (const obs::MOpLatency& mop : mops) {
          EXPECT_EQ(mop.phases.total(), mop.respond - mop.invoke)
              << "m-operation " << mop.mop_id << " lost ticks in attribution";
        }
      }
    }
  }
}

/// Batching must actually remove messages: the same seeded workload with
/// group-commit + coalescing on produces strictly fewer wire messages
/// than with the defaults.
TEST(BatchingEndToEnd, BatchedRunSendsFewerMessagesThanUnbatched) {
  const auto run_messages = [](bool batched) {
    api::SystemConfig config;
    config.protocol = "mseq";
    config.num_processes = 6;
    config.num_objects = 8;
    config.delay = "constant";
    config.seed = 9;
    config.reliable_link = true;  // both sides pay ack overhead — fair
    if (batched) {
      config.batching.abcast_batch_max = 8;
      config.batching.abcast_batch_age = 6;
      config.batching.link_batch_items = 4;
      config.batching.link_batch_age = 3;
    }
    api::System system(config);
    protocols::WorkloadParams params;
    params.ops_per_process = 10;
    params.update_ratio = 1.0;
    system.run_workload(params);
    EXPECT_TRUE(system.audit().ok);
    return system.traffic().messages;
  };

  const std::uint64_t unbatched = run_messages(false);
  const std::uint64_t batched = run_messages(true);
  EXPECT_LT(batched, unbatched);
}

}  // namespace
}  // namespace mocc
