// The m-sequential-consistency protocol (Figure 4), an extension of the
// Attiya–Welch construction to multi-object operations.
//
// Three atomic actions per process:
//   (A1) invocation of a potentially-writing m-operation α: atomically
//        broadcast α to all processes;
//   (A2) on abcast delivery of α: apply α to the local copy, bump
//        ts[x] for every x written; if α is ours, generate the response;
//   (A3) invocation of a query m-operation: apply to the local copy and
//        respond immediately — queries cost no messages, which is the
//        protocol's whole point (and experiment E1's contrast).
//
// The same replica also implements the *broadcast-everything* design
// point (`Options::broadcast_queries`): queries go through the atomic
// broadcast too and execute at their delivery point. That single change
// upgrades the guarantee from m-sequential consistency to
// m-linearizability — every m-operation takes effect at one totally
// ordered instant between invocation and response — at the price of a
// full broadcast per query. It is the natural strawman against Figure
// 6's query/reply scheme, which reads a *constructed* fresh copy without
// occupying the broadcast stream (ablation in experiments E1/E3).
#pragma once

#include <map>
#include <memory>

#include "abcast/abcast.hpp"
#include "protocols/replica.hpp"
#include "util/timestamp.hpp"

namespace mocc::protocols {

class MSeqReplica final : public Replica {
 public:
  // Deliberately declares no wire kinds of its own: every message rides
  // the abcast layer's kinds, so mocc-lint's msg-flow closure has
  // nothing to track here (and would flag any future orphaned addition).
  struct Options {
    /// Route queries through the atomic broadcast as well; see header
    /// comment. Off = the literal Figure 4.
    bool broadcast_queries = false;
    /// Deliberate protocol mutation for mocc-check validation (never set
    /// in production): silently skip applying the first delivered foreign
    /// update — the delivery counter still advances, so the replica's
    /// copy and timestamps go quietly stale.
    bool mutate_skip_first_foreign = false;
  };

  MSeqReplica(std::size_t num_objects, std::unique_ptr<abcast::AtomicBroadcast> abcast,
              ExecutionRecorder& recorder, Options options);
  MSeqReplica(std::size_t num_objects, std::unique_ptr<abcast::AtomicBroadcast> abcast,
              ExecutionRecorder& recorder)
      : MSeqReplica(num_objects, std::move(abcast), recorder, Options()) {}

  void on_start(sim::Context& ctx) override;
  void invoke(sim::Context& ctx, mscript::Program program,
              ResponseFn on_response) override;

  const util::VersionVector& timestamp() const { return myts_; }
  const std::vector<core::Value>& store() const { return my_x_; }

 protected:
  void handle_delivered(sim::Context& ctx, const sim::Message& message) override;

 private:
  void on_deliver(sim::Context& ctx, sim::NodeId origin,
                  const std::vector<std::uint8_t>& payload);

  std::size_t num_objects_;
  std::unique_ptr<abcast::AtomicBroadcast> abcast_;
  ExecutionRecorder& recorder_;
  Options options_;

  // Local copy of every shared object (full replication, §5) with the
  // per-object versions {ts} of Figure 4 and the last-writer table the
  // recorder uses for reads-from.
  std::vector<core::Value> my_x_;
  util::VersionVector myts_;
  std::vector<core::MOpId> last_writer_;

  /// Scratch reused by every delivery: the decoded update and its run.
  /// Nothing reads them once the response callback (which may re-enter
  /// this replica) has been called.
  mscript::Program delivered_;
  mscript::ExecutionResult exec_;

  /// Delivery index of the abcast stream (identical at every replica).
  std::uint64_t deliveries_ = 0;
  /// mutate_skip_first_foreign: the one skip has been spent.
  bool mutation_skipped_ = false;

  struct PendingUpdate {
    ResponseFn on_response;
    core::Time invoke = 0;
    obs::SpanContext trace;  ///< root span of the m-operation's trace
  };
  std::map<core::MOpId, PendingUpdate> pending_;
};

}  // namespace mocc::protocols
