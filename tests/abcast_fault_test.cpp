// Atomic broadcast invariants over a FAULTY network: validity,
// agreement, total order, and per-sender FIFO for both algorithms, with
// every frame carried by the reliable link (fault/reliable_link.hpp)
// while the fault plan drops and duplicates beneath it.
//
// The fault-free sweep lives in abcast_test.cpp; this file is the
// discharge of the reliable-channel assumption those tests rely on: the
// same guarantees must survive 10% loss and 5% duplication. Per-sender
// FIFO is asserted here (unlike the fault-free sweep) because each host
// broadcasts sequentially — message i+1 only after its own delivery of
// message i — which is exactly the §5 protocols' usage pattern: a
// process has at most one update in flight.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "abcast/abcast.hpp"
#include "fault/fault.hpp"
#include "fault/reliable_link.hpp"
#include "sim/delay.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"

namespace mocc::abcast {
namespace {

/// Hosts an AtomicBroadcast over a ReliableLink; broadcasts `count`
/// messages sequentially (next one only after delivering its own
/// previous one).
class FaultyAbcastHost final : public sim::Actor {
 public:
  FaultyAbcastHost(std::unique_ptr<AtomicBroadcast> layer, int count)
      : layer_(std::move(layer)), remaining_(count) {
    link_.set_deliver([this](sim::Context& ctx, const sim::Message& message) {
      EXPECT_TRUE(layer_->on_message(ctx, message))
          << "inner kind " << message.kind << " not consumed";
    });
    layer_->set_reliable_link(&link_);
    layer_->set_deliver([this](sim::Context& ctx, sim::NodeId origin,
                               std::span<const std::uint8_t> payload) {
      util::ByteReader r(payload);
      delivered.emplace_back(origin, r.get_u64());
      if (origin == ctx.self() && remaining_ > 0) broadcast_next(ctx);
    });
  }

  void on_start(sim::Context& ctx) override {
    layer_->on_start(ctx);
    if (remaining_ > 0) broadcast_next(ctx);
  }

  void on_message(sim::Context& ctx, const sim::Message& message) override {
    // Every network frame is a link frame: the layer above sends
    // exclusively through the reliable link.
    EXPECT_TRUE(link_.on_message(ctx, message))
        << "raw kind " << message.kind << " bypassed the link";
  }

  void on_timer(sim::Context& ctx, std::uint64_t timer_id) override {
    EXPECT_TRUE(link_.on_timer(ctx, timer_id));
  }

  const fault::ReliableLink& link() const { return link_; }
  std::vector<std::pair<sim::NodeId, std::uint64_t>> delivered;

 private:
  void broadcast_next(sim::Context& ctx) {
    --remaining_;
    util::ByteWriter w;
    w.put_u64(next_value_++);
    layer_->broadcast(ctx, w.take());
  }

  std::unique_ptr<AtomicBroadcast> layer_;
  fault::ReliableLink link_;
  int remaining_;
  std::uint64_t next_value_ = 0;
};

void run_one_seed(const std::string& algorithm, std::uint64_t seed) {
  constexpr std::size_t kNodes = 3;
  constexpr int kBroadcastsPerNode = 3;

  sim::Simulator sim(sim::make_delay_model("lan"), seed);
  std::vector<FaultyAbcastHost*> hosts;
  for (std::size_t i = 0; i < kNodes; ++i) {
    auto host = std::make_unique<FaultyAbcastHost>(
        make_abcast_factory(algorithm)(), kBroadcastsPerNode);
    hosts.push_back(host.get());
    sim.add_node(std::move(host));
  }

  fault::FaultPlanConfig config;
  config.seed = seed * 2654435761u + 1;
  config.default_link.drop_rate = 0.10;
  config.default_link.duplicate_rate = 0.05;
  fault::FaultPlan plan(config);
  sim.set_fault_injector(&plan);
  sim.run();

  const std::size_t expected = kNodes * kBroadcastsPerNode;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    // No send may run out of retries at these fault rates: a lost
    // broadcast would turn an ordering theorem into a liveness bug.
    EXPECT_TRUE(hosts[i]->link().failed().empty())
        << algorithm << " seed " << seed << " node " << i;
    // Validity + agreement: everyone delivers all broadcasts, once each.
    ASSERT_EQ(hosts[i]->delivered.size(), expected)
        << algorithm << " seed " << seed << " node " << i;
    std::map<std::pair<sim::NodeId, std::uint64_t>, int> counts;
    for (const auto& d : hosts[i]->delivered) ++counts[d];
    for (const auto& [key, count] : counts) {
      EXPECT_EQ(count, 1) << algorithm << " seed " << seed << " node " << i
                          << " delivered (" << key.first << "," << key.second
                          << ") " << count << " times";
    }
  }
  // Total order: identical delivery sequence everywhere.
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    EXPECT_EQ(hosts[i]->delivered, hosts[0]->delivered)
        << algorithm << " seed " << seed << ": node " << i
        << " diverged from node 0";
  }
  // Per-sender FIFO: with sequential broadcasting, each origin's values
  // must appear in increasing order in the agreed sequence.
  std::map<sim::NodeId, std::uint64_t> next_from;
  for (const auto& [origin, value] : hosts[0]->delivered) {
    EXPECT_EQ(value, next_from[origin])
        << algorithm << " seed " << seed << ": origin " << origin
        << " out of FIFO order";
    next_from[origin] = value + 1;
  }
}

TEST(AbcastUnderFaults, SequencerInvariantsAcross100Seeds) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    run_one_seed("sequencer", seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(AbcastUnderFaults, IsisInvariantsAcross100Seeds) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    run_one_seed("isis", seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(AbcastUnderFaults, SurvivesAPartitionHealCycle) {
  // One partition/heal cycle on top of loss: node 0 is isolated during
  // [100, 400); the retransmit budget must carry every frame across.
  for (const char* algorithm : {"sequencer", "isis"}) {
    sim::Simulator sim(sim::make_delay_model("lan"), 21);
    std::vector<FaultyAbcastHost*> hosts;
    for (std::size_t i = 0; i < 3; ++i) {
      auto host = std::make_unique<FaultyAbcastHost>(
          make_abcast_factory(algorithm)(), 3);
      hosts.push_back(host.get());
      sim.add_node(std::move(host));
    }
    fault::FaultPlanConfig config;
    config.seed = 1234;
    config.default_link.drop_rate = 0.05;
    config.partitions.push_back({100, 400, {0}});
    fault::FaultPlan plan(config);
    sim.set_fault_injector(&plan);
    sim.run();

    ASSERT_EQ(hosts[0]->delivered.size(), 9u) << algorithm;
    for (std::size_t i = 1; i < hosts.size(); ++i) {
      EXPECT_EQ(hosts[i]->delivered, hosts[0]->delivered) << algorithm;
      EXPECT_TRUE(hosts[i]->link().failed().empty()) << algorithm;
    }
  }
}

}  // namespace
}  // namespace mocc::abcast
