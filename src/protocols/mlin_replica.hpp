// The m-linearizability protocol (Figure 6).
//
// Updates are handled exactly as in Figure 4 (A1/A2: atomic broadcast,
// apply everywhere, respond at the origin). Queries must not read stale
// values, and — unlike Attiya–Welch's linearizable construction — the
// protocol assumes nothing about clock synchronization or message delay:
//   (A3) on invoking a query: reset `othts`, send "query" to all
//        processes;
//   (A4) on receiving a "query": reply with ⟨myX, myts⟩;
//   (A5) on each reply ⟨X, ts⟩: if othts < ts, keep ⟨X, ts⟩;
//   (A6) once all replies arrived: apply the query to othX, respond.
//
// Because every replica applies the same abcast prefix, the returned
// timestamps are totally ordered under the pointwise order (asserted at
// A5), and keeping the maximum yields a copy at least as fresh as every
// copy that existed when the query started — which is what pins
// real-time order (Lemma 16, cases 2.x).
//
// Implementation detail: the querying process contributes its own copy
// locally (no self-message), so a query costs exactly 2(n-1) messages.
// Replies carry the last-writer table alongside ⟨myX, myts⟩ so the
// recorder can attribute reads-from at m-operation granularity; the
// paper's closing remark (§5.2) licenses restricting the reply to the
// objects the query declares — enabled with `narrow_replies`.
//
// Query fan-out batching (docs/batching.md, `Options::batch_queries`):
// at most one query ROUND is in flight per process; queries invoked
// while a round runs wait, and the next round serves every waiting
// query with a single 2(n-1)-message exchange (kQueryBatch /
// kQueryRespBatch) requesting the union of their footprints. Freshness
// is untouched — a round starts after every batched query's invocation,
// so the merged copy is at least as fresh as any copy existing at each
// invocation (the same Lemma 16 argument, applied per member).
#pragma once

#include <map>
#include <memory>

#include "abcast/abcast.hpp"
#include "protocols/replica.hpp"
#include "util/timestamp.hpp"

namespace mocc::protocols {

class MLinReplica final : public Replica {
 public:
  // Query/response pairs (sim/wire_kinds.hpp kKindPairs): the msg-flow
  // closure check enforces that a live kQuery[Batch] keeps its
  // kQueryResp[Batch] emitted, so neither round shape can rot silently.
  static constexpr std::uint32_t kQuery = sim::wire::protocols_kind(0);
  static constexpr std::uint32_t kQueryResp = sim::wire::protocols_kind(1);
  /// Batched query round: same body layout as kQuery / kQueryResp, keyed
  /// by a round id instead of a qid, footprint = union over the round.
  static constexpr std::uint32_t kQueryBatch = sim::wire::protocols_kind(2);
  static constexpr std::uint32_t kQueryRespBatch = sim::wire::protocols_kind(3);

  struct Options {
    /// §5.2 optimization: replies carry only the objects the query may
    /// read instead of the whole store.
    bool narrow_replies = false;
    /// Query fan-out batching: serialize queries into rounds (one round
    /// in flight; all queries waiting when a round completes share the
    /// next round's single 2(n-1)-message exchange).
    bool batch_queries = false;
    /// Deliberate protocol mutation for mocc-check validation (never set
    /// in production): silently skip applying the first delivered foreign
    /// update — the delivery counter still advances, so the replica's
    /// copy and timestamps go quietly stale.
    bool mutate_skip_first_foreign = false;
  };

  MLinReplica(std::size_t num_objects, std::unique_ptr<abcast::AtomicBroadcast> abcast,
              ExecutionRecorder& recorder, Options options);
  MLinReplica(std::size_t num_objects, std::unique_ptr<abcast::AtomicBroadcast> abcast,
              ExecutionRecorder& recorder)
      : MLinReplica(num_objects, std::move(abcast), recorder, Options()) {}

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
  void on_query(sim::Context& ctx, const sim::Message& message,
                std::uint32_t resp_kind);
  /// Decodes a kQueryResp[Batch] into the reply_* buffers; returns its
  /// qid or round id.
  std::uint64_t decode_reply(const sim::Message& message);
  void on_query_response(sim::Context& ctx, const sim::Message& message);
  void finish_query(sim::Context& ctx, std::uint64_t qid);
  /// Opens the next query round over every waiting qid (batch_queries).
  void start_round(sim::Context& ctx);
  void on_round_response(sim::Context& ctx, const sim::Message& message);
  /// All replies in: hand the round's merged copy to each member query,
  /// finish them in invocation order, then chain the next round.
  void complete_round(sim::Context& ctx);

  std::size_t num_objects_;
  std::unique_ptr<abcast::AtomicBroadcast> abcast_;
  ExecutionRecorder& recorder_;
  Options options_;

  std::vector<core::Value> my_x_;
  util::VersionVector myts_;
  std::vector<core::MOpId> last_writer_;
  std::uint64_t deliveries_ = 0;
  /// mutate_skip_first_foreign: the one skip has been spent.
  bool mutation_skipped_ = false;

  /// Scratch reused by every delivery, query and reply: the decoded
  /// update, the last program run, and the decoded request or reply.
  /// Nothing reads them once a response callback (which may re-enter
  /// this replica) has been called.
  mscript::Program delivered_;
  mscript::ExecutionResult exec_;
  std::vector<std::uint32_t> reply_objects_;
  std::vector<std::uint64_t> reply_entries_;
  util::VersionVector reply_ts_;
  std::vector<core::Value> reply_values_;
  std::vector<std::uint32_t> reply_writers_;

  struct PendingUpdate {
    ResponseFn on_response;
    core::Time invoke = 0;
    obs::SpanContext trace;  ///< root span of the m-operation's trace
  };
  std::map<core::MOpId, PendingUpdate> pending_updates_;

  struct PendingQuery {
    core::MOpId id = 0;
    mscript::Program program;
    ResponseFn on_response;
    core::Time invoke = 0;
    obs::SpanContext trace;  ///< root span of the m-operation's trace
    std::size_t replies = 0;
    // othX / othts / oth last-writer: the freshest copy seen so far,
    // seeded from the local replica.
    std::vector<core::Value> oth_x;
    util::VersionVector othts;
    std::vector<core::MOpId> oth_writer;
  };
  std::uint64_t next_qid_ = 0;
  std::map<std::uint64_t, PendingQuery> pending_queries_;

  /// One in-flight query round (batch_queries). The merged copy lives at
  /// round level — member queries receive it only at completion, so it is
  /// at least as fresh as any copy existing at each member's invocation
  /// (the round opens after the last member invoked).
  struct QueryRound {
    std::uint64_t id = 0;
    std::vector<std::uint64_t> qids;       ///< members, invocation order
    std::vector<std::uint32_t> footprint;  ///< union may_read; empty = whole store
    std::size_t replies = 0;
    std::vector<core::Value> oth_x;
    util::VersionVector othts;
    std::vector<core::MOpId> oth_writer;
  };
  std::uint64_t next_round_id_ = 0;
  bool round_active_ = false;
  QueryRound round_;
  std::vector<std::uint64_t> waiting_;  ///< qids awaiting the next round
};

}  // namespace mocc::protocols
