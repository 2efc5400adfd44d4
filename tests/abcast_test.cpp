// Atomic broadcast properties: validity, agreement, total order —
// checked for both algorithms across delay models and seeds (the paper's
// §5 protocols inherit their correctness from these guarantees).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "abcast/abcast.hpp"
#include "abcast/isis.hpp"
#include "abcast/sequencer.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"

namespace mocc::abcast {
namespace {

/// Hosts an AtomicBroadcast instance and logs deliveries; broadcasts a
/// scripted number of its own messages at start.
class AbcastHarness final : public sim::Actor {
 public:
  AbcastHarness(std::unique_ptr<AtomicBroadcast> layer, int broadcasts)
      : layer_(std::move(layer)), broadcasts_(broadcasts) {
    layer_->set_deliver([this](sim::Context&, sim::NodeId origin,
                               std::span<const std::uint8_t> payload) {
      util::ByteReader r(payload);
      delivered.emplace_back(origin, r.get_u64());
    });
  }

  void on_start(sim::Context& ctx) override {
    layer_->on_start(ctx);
    for (int i = 0; i < broadcasts_; ++i) {
      util::ByteWriter w;
      w.put_u64(static_cast<std::uint64_t>(i));
      layer_->broadcast(ctx, w.take());
    }
  }

  void on_message(sim::Context& ctx, const sim::Message& message) override {
    ASSERT_TRUE(layer_->on_message(ctx, message));
  }

  std::vector<std::pair<sim::NodeId, std::uint64_t>> delivered;

 private:
  std::unique_ptr<AtomicBroadcast> layer_;
  int broadcasts_;
};

struct Params {
  std::string algorithm;
  std::string delay;
  std::uint64_t seed;
  std::size_t nodes;
  int broadcasts_per_node;
};

class AbcastProperties : public ::testing::TestWithParam<Params> {};

TEST_P(AbcastProperties, ValidityAgreementTotalOrder) {
  const Params& p = GetParam();
  sim::Simulator sim(sim::make_delay_model(p.delay), p.seed);
  std::vector<AbcastHarness*> harnesses;
  for (std::size_t i = 0; i < p.nodes; ++i) {
    auto harness = std::make_unique<AbcastHarness>(
        make_abcast_factory(p.algorithm)(), p.broadcasts_per_node);
    harnesses.push_back(harness.get());
    sim.add_node(std::move(harness));
  }
  sim.run();

  const std::size_t expected = p.nodes * p.broadcasts_per_node;
  // Validity + agreement: every node delivers every broadcast exactly once.
  for (const auto* h : harnesses) {
    ASSERT_EQ(h->delivered.size(), expected);
    std::map<std::pair<sim::NodeId, std::uint64_t>, int> counts;
    for (const auto& d : h->delivered) ++counts[d];
    for (const auto& [key, count] : counts) EXPECT_EQ(count, 1);
  }
  // Total order: identical delivery sequence everywhere.
  for (std::size_t i = 1; i < harnesses.size(); ++i) {
    EXPECT_EQ(harnesses[i]->delivered, harnesses[0]->delivered)
        << "node " << i << " diverged from node 0";
  }
  // Note: per-sender FIFO is deliberately NOT asserted — with reordering
  // channels neither algorithm provides it (two in-flight broadcasts from
  // one sender can be sequenced in either order), and the §5 protocols
  // never need it: a process has at most one update in flight.
}

std::vector<Params> make_params() {
  std::vector<Params> all;
  for (const char* algorithm : {"sequencer", "isis"}) {
    for (const char* delay : {"constant", "lan", "reorder", "exponential"}) {
      for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
        all.push_back(Params{algorithm, delay, seed, 4, 5});
      }
    }
    // Edge sizes.
    all.push_back(Params{algorithm, "reorder", 11, 1, 5});
    all.push_back(Params{algorithm, "reorder", 13, 2, 10});
    all.push_back(Params{algorithm, "lan", 17, 8, 3});
  }
  return all;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AbcastProperties, ::testing::ValuesIn(make_params()),
    [](const ::testing::TestParamInfo<Params>& info) {
      return info.param.algorithm + "_" + info.param.delay + "_s" +
             std::to_string(info.param.seed) + "_n" + std::to_string(info.param.nodes);
    });

// --------------------------------------------------------- specific cases

TEST(Sequencer, LocalSubmitCostsOnlyFanOut) {
  // A broadcast from the sequencer node itself: n-1 messages, no submit.
  sim::Simulator sim(sim::make_delay_model("constant"), 1);
  for (int i = 0; i < 3; ++i) {
    sim.add_node(std::make_unique<AbcastHarness>(
        std::make_unique<SequencerAbcast>(), i == 0 ? 1 : 0));
  }
  sim.run();
  EXPECT_EQ(sim.traffic().messages, 2u);  // fan-out only
}

TEST(Sequencer, RemoteSubmitAddsOneMessage) {
  sim::Simulator sim(sim::make_delay_model("constant"), 1);
  for (int i = 0; i < 3; ++i) {
    sim.add_node(std::make_unique<AbcastHarness>(
        std::make_unique<SequencerAbcast>(), i == 1 ? 1 : 0));
  }
  sim.run();
  EXPECT_EQ(sim.traffic().messages, 3u);  // submit + 2 fan-out
}

TEST(Isis, MessageComplexityThreePhases) {
  // One broadcast among n nodes: (n-1) proposes + (n-1) proposals +
  // (n-1) finals.
  constexpr std::size_t n = 5;
  sim::Simulator sim(sim::make_delay_model("constant"), 1);
  for (std::size_t i = 0; i < n; ++i) {
    sim.add_node(std::make_unique<AbcastHarness>(std::make_unique<IsisAbcast>(),
                                                 i == 0 ? 1 : 0));
  }
  sim.run();
  EXPECT_EQ(sim.traffic().messages, 3 * (n - 1));
}

TEST(Isis, SingleNodeDeliversImmediately) {
  sim::Simulator sim(sim::make_delay_model("constant"), 1);
  auto harness =
      std::make_unique<AbcastHarness>(std::make_unique<IsisAbcast>(), 3);
  auto* raw = harness.get();
  sim.add_node(std::move(harness));
  sim.run();
  ASSERT_EQ(raw->delivered.size(), 3u);
  EXPECT_EQ(sim.traffic().messages, 0u);
}

TEST(Isis, HeavyReorderStressManySeeds) {
  // The FINAL-overtakes-PROPOSE path and the minimal-pending delivery
  // rule under adversarial reordering, across many seeds.
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    sim::Simulator sim(sim::make_delay_model("reorder"), seed);
    std::vector<AbcastHarness*> harnesses;
    for (int i = 0; i < 3; ++i) {
      auto h = std::make_unique<AbcastHarness>(std::make_unique<IsisAbcast>(), 4);
      harnesses.push_back(h.get());
      sim.add_node(std::move(h));
    }
    sim.run();
    ASSERT_EQ(harnesses[0]->delivered.size(), 12u) << "seed " << seed;
    EXPECT_EQ(harnesses[1]->delivered, harnesses[0]->delivered) << "seed " << seed;
    EXPECT_EQ(harnesses[2]->delivered, harnesses[0]->delivered) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mocc::abcast
