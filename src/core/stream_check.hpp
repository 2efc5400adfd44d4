// The incremental Theorem-7 check: the admissibility verdict of a stream
// of completed m-operations, decided as they arrive, without windows
// (DESIGN.md §7; docs/observability.md "StreamingAuditor").
//
// hi(α), the highest ~ww rank with a path to α, decides α's reads
// (sparse_check.cpp). It is final once α's process-order, real-time (per
// object under m-normality) and reads-from predecessors have settled, and
// α is decided then. No ~ww edge is needed for hi: in an acyclic base
// order a path through a ~ww edge a → b never carries a rank above
// rank(b). The base order is cyclic exactly when a ranked m-operation's
// predecessors carry hi ≥ its own rank, or when reads-from closes a cycle
// with process and real-time order (m-operations that wait on each other
// and on nothing else). A read of x from β by α is legal exactly when no
// other x-writer ranks in (rank(β), hi(α)] (Lemma 6); the interval stays
// open on x, so an x-writer completing later with a rank inside it — the
// one backward edge of a completion-ordered stream — is the violation.
// Every simulated producer ranks its updates (abcast position or lock
// point); an update without a rank leaves the stream undecided.
//
// invoked() announces each m-operation; an arrived one waits until every
// m-operation invoked before it has arrived, so completions may arrive in
// any order. Beyond those waiting, the check keeps each process's last
// hi, the response frontier back to the oldest invocation in flight, and
// per object the writers and open intervals above a floor that every
// undecided m-operation's hi reaches: a read from a writer below it is a
// legality violation, not a lookup miss. Under m-sequential consistency
// the floor is the lowest last hi of the `processes` processes (0 keeps
// every writer), so a process that stops invoking pins it. Without
// announcements nothing is released and the stream must arrive in
// response order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/moperation.hpp"
#include "core/types.hpp"
#include "core/verdict.hpp"

namespace mocc::core {

/// One operation of a streamed m-operation, in program order.
struct StreamOp {
  static constexpr std::uint64_t kInitialWriter = ~std::uint64_t{0};

  OpType type = OpType::kRead;
  ObjectId object = 0;
  Value value = 0;
  /// Reads: the key of the writer observed (kInitialWriter for the
  /// initializing write). A read after an own write of its object is
  /// internal and, as in MOperation, constrains nothing.
  std::uint64_t writer = kInitialWriter;
};

/// One completed m-operation; `key` names it in the stream, uniquely.
struct StreamMop {
  ProcessId process = 0;
  std::uint64_t key = 0;
  Time invoke = 0;
  Time respond = 0;
  std::optional<std::uint64_t> ww;  ///< ~ww rank (abcast position or lock point)
  std::vector<StreamOp> ops;
};

class StreamCheck {
 public:
  struct Options {
    Condition condition = Condition::kMLinearizability;
    std::size_t processes = 0;  ///< processes in the system; 0 when unknown
  };

  explicit StreamCheck(Options options) : options_(options) {}

  /// `key` was invoked at `time`.
  void invoked(std::uint64_t key, Time time);
  /// Decides every m-operation that `mop` lets settle.
  void completed(const StreamMop& mop);
  /// End of the stream: whatever is still in flight never completed.
  void finish();

  /// kViolation is final; kUndecided when the stream cannot be judged (a
  /// writer that never completed, an update without a rank).
  Outcome outcome() const { return outcome_; }
  const std::string& detail() const { return detail_; }
  /// Completed m-operations whose verdict is not final yet.
  std::size_t pending() const { return pending_.size(); }
  /// State held beyond them: writer entries, open intervals, frontier
  /// steps, in-flight invocations, and keys and ranks above watermarks.
  std::size_t retained() const;

 private:
  using Ord = std::uint64_t;  ///< 1 + ~ww rank, 0 for none; hi values too

  /// Keys (or ranks) seen: all below a watermark, and the sorted few
  /// above it. Dense keys keep it small.
  class Seen {
   public:
    bool insert(std::uint64_t key);  ///< false when already in
    bool contains(std::uint64_t key) const;
    void raise(std::uint64_t bound);  ///< every key below `bound` counts as seen
    std::size_t size() const { return above_.size(); }

   private:
    std::uint64_t below_ = 0;
    std::vector<std::uint64_t> above_;
  };

  /// max hi by response time over settled m-operations: a staircase
  /// rising in both, steps before the pruning floor folded into base.
  class Frontier {
   public:
    Ord before(Time t) const;  ///< over those responding strictly before t
    void add(Time respond, Ord hi);
    void prune(Time floor);
    Ord base() const { return base_; }
    std::size_t size() const { return steps_.size(); }

   private:
    Ord base_ = 0;
    std::vector<std::pair<Time, Ord>> steps_;
  };

  struct Node {
    std::uint64_t key = 0;
    ProcessId process = 0;
    Time invoke = 0, respond = 0;
    Ord ord = 0, hi = 0;
    bool settled = false;
    std::uint32_t lists = 0;  ///< writer lists holding it
    std::vector<StreamOp> reads;                      ///< external reads
    std::vector<std::pair<ObjectId, Value>> writes;  ///< final write per object
    std::vector<ObjectId> objects;                    ///< touched (m-normality)
  };

  struct Object {
    std::vector<std::pair<Ord, std::uint32_t>> writers;  ///< (ord, node), by ord
    std::vector<std::pair<Ord, Ord>> open;              ///< merged (lo, hi], by lo
    Frontier frontier;                                   ///< m-normality
    Ord pruned_at = 0;                                   ///< floor of the last prune
  };

  struct Process {
    Time last_respond = 0;
    Ord last_hi = 0;
    std::uint64_t blocked_pass = 0;  ///< settle pass that skipped one of its m-ops
  };

  bool halted() const { return outcome_ == Outcome::kViolation || stopped_; }
  void violate(std::string why);
  void undecided(std::string why);
  void arrive(const StreamMop& mop, bool announced);
  Object& object(ObjectId x);
  Node* writer_of(ObjectId x, std::uint64_t key);
  bool reads_ready(const Node& u, bool& external);
  void settle();
  void settle_one(Node& u, std::uint32_t index);
  void record_read(ObjectId x, Ord lo, Ord hi);
  Ord bound(const Object& o) const;
  void prune_object(Object& o);

  Options options_;
  Outcome outcome_ = Outcome::kOk;
  std::string detail_;
  bool stopped_ = false;
  bool finished_ = false;

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_nodes_;
  std::vector<std::uint32_t> pending_;  ///< by (invoke, key)
  std::vector<std::pair<Time, std::uint64_t>> in_flight_;  ///< (invoke, key), sorted
  bool announced_ = false;
  Time last_invoke_ = 0;
  Time pruned_to_ = 0;  ///< frontier floor folded into the bases
  std::vector<Process> processes_;
  std::vector<Object> objects_;
  Frontier frontier_;  ///< m-linearizability
  Seen keys_;
  Seen ranks_;
  std::uint64_t pass_ = 0;
  std::vector<std::pair<ObjectId, Time>> skipped_;  ///< per pass (m-normality)
  std::vector<const Node*> from_;                   ///< per settle: each read's writer
};

}  // namespace mocc::core
