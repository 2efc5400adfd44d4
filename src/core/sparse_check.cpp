// The sparse Theorem-7 check (fast_check.hpp; DESIGN.md §7).
//
// Under the WW-constraint ~ww totally orders the updates, so the updates
// with a path to an m-operation α form a ~ww prefix: an update γ reaches
// α iff rank(γ) ≤ hi(α), the highest rank with a path to α. The graph
// that carries those paths has O(n log n) edges instead of the n² pairs
// of the closed base order:
//
//   - process order as one chain per process, reads-from as one edge per
//     external read, ~ww as one chain in rank order;
//   - real time as an interval order: one time node per m-operation,
//     chained in response order, α → T(α), and the last time node
//     responding before inv(β) → β. So α reaches β through time nodes iff
//     resp(α) < inv(β). m-normality builds one such chain per object over
//     the m-operations touching it; m-sequential consistency builds none.
//
// One Kahn pass finds a cycle or propagates hi. A read by α of x from β
// is legal iff x's next writer γ after β in ~ww (x's first writer for a
// read from the initial write) is absent, is α, or has rank(γ) > hi(α):
// every later writer of x follows γ in ~ww, so γ is the one to test
// (Lemma 6). Adding the next-writer ~rw edges α → γ keeps the graph
// acyclic (ranks rise strictly around any would-be cycle), and any
// topological order of it places β as the last writer of x before α —
// a legal sequential witness (Lemma 5).
#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/fast_check.hpp"
#include "core/legality.hpp"
#include "util/assert.hpp"

namespace mocc::core {

namespace {

/// Graph nodes: m-operations keep their ids, time nodes follow them.
using Node = std::uint32_t;
using Edge = std::pair<Node, Node>;

/// Adjacency in compressed-row form.
class Graph {
 public:
  Graph(std::size_t nodes, const std::vector<Edge>& edges)
      : first_(nodes + 1, 0), to_(edges.size()) {
    for (const Edge& e : edges) ++first_[e.first + 1];
    std::partial_sum(first_.begin(), first_.end(), first_.begin());
    std::vector<std::size_t> fill(first_.begin(), first_.end() - 1);
    for (const Edge& e : edges) to_[fill[e.first]++] = e.second;
  }

  /// Kahn's algorithm. The order is shorter than the node count iff the
  /// graph has a cycle.
  std::vector<Node> topological_order() const {
    const std::size_t nodes = first_.size() - 1;
    std::vector<std::uint32_t> in_degree(nodes, 0);
    for (const Node v : to_) ++in_degree[v];
    std::vector<Node> order;
    order.reserve(nodes);
    for (Node v = 0; v < nodes; ++v) {
      if (in_degree[v] == 0) order.push_back(v);
    }
    for (std::size_t head = 0; head < order.size(); ++head) {
      for (const Node v : successors(order[head])) {
        if (--in_degree[v] == 0) order.push_back(v);
      }
    }
    return order;
  }

  std::span<const Node> successors(Node u) const {
    return {to_.data() + first_[u], to_.data() + first_[u + 1]};
  }

 private:
  std::vector<std::size_t> first_;
  std::vector<Node> to_;
};

/// Real time among `members` as an interval order (see the top of this
/// file). Time nodes are numbered from `nodes`; returns the new count.
std::size_t add_interval_order(const History& h, const std::vector<MOpId>& members,
                               std::size_t nodes, std::vector<Edge>& edges) {
  MOCC_ASSERT_MSG(nodes + members.size() <= std::numeric_limits<Node>::max(),
                  "sparse check: too many time nodes");
  std::vector<std::pair<Time, MOpId>> by_response;
  by_response.reserve(members.size());
  for (const MOpId id : members) by_response.emplace_back(h.mop(id).response(), id);
  std::sort(by_response.begin(), by_response.end());
  const auto time_node = [nodes](std::size_t i) { return static_cast<Node>(nodes + i); };
  for (std::size_t i = 0; i < by_response.size(); ++i) {
    edges.emplace_back(by_response[i].second, time_node(i));
    if (i > 0) edges.emplace_back(time_node(i - 1), time_node(i));
  }
  for (const MOpId beta : members) {
    const Time invoke = h.mop(beta).invoke();
    const auto responded = static_cast<std::size_t>(
        std::partition_point(by_response.begin(), by_response.end(),
                             [invoke](const auto& entry) { return entry.first < invoke; }) -
        by_response.begin());
    if (responded > 0) edges.emplace_back(time_node(responded - 1), beta);
  }
  return nodes + members.size();
}

}  // namespace

FastCheckResult sparse_fast_check(const History& h, Condition condition,
                                  const WwRanks& ww_ranks) {
  MOCC_ASSERT_MSG(ww_ranks.size() == h.size(), "one ww rank slot per m-operation");
  const std::size_t n = h.size();

  std::vector<std::pair<std::uint64_t, MOpId>> ranked;
  bool writers_ranked = true;
  for (MOpId id = 0; id < n; ++id) {
    if (ww_ranks[id].has_value()) {
      ranked.emplace_back(*ww_ranks[id], id);
    } else if (h.mop(id).is_update()) {
      writers_ranked = false;
    }
  }
  std::sort(ranked.begin(), ranked.end());
  const bool distinct =
      std::adjacent_find(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
        return a.first == b.first;
      }) == ranked.end();
  if (!writers_ranked || !distinct) {
    // ~ww does not totally order the updates by rank: the dense check
    // decides, and names the unordered pair if the constraint fails.
    return fast_check_condition(h, condition, ww_ranks, Constraint::kWW);
  }

  // ord(α) = 1 + α's position in ~ww, 0 for unranked m-operations.
  std::vector<std::uint32_t> ord(n, 0);
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    ord[ranked[i].second] = static_cast<std::uint32_t>(i + 1);
  }

  std::vector<Edge> edges;
  for (ProcessId p = 0; p < h.num_processes(); ++p) {
    const std::vector<MOpId>& ops = h.process_ops(p);
    for (std::size_t i = 1; i < ops.size(); ++i) edges.emplace_back(ops[i - 1], ops[i]);
  }
  for (MOpId alpha = 0; alpha < n; ++alpha) {
    for (const Operation& read : h.mop(alpha).external_reads()) {
      if (read.reads_from == kInitialMOp) continue;
      MOCC_ASSERT_MSG(read.reads_from < n, "read names an m-operation outside the history");
      edges.emplace_back(read.reads_from, alpha);
    }
  }
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    edges.emplace_back(ranked[i - 1].second, ranked[i].second);
  }
  std::size_t nodes = n;
  switch (condition) {
    case Condition::kMSequentialConsistency:
      break;
    case Condition::kMLinearizability: {
      std::vector<MOpId> all(n);
      std::iota(all.begin(), all.end(), MOpId{0});
      nodes = add_interval_order(h, all, nodes, edges);
      break;
    }
    case Condition::kMNormality: {
      std::vector<std::vector<MOpId>> touching(h.num_objects());
      for (MOpId id = 0; id < n; ++id) {
        for (const ObjectId x : h.mop(id).objects()) touching[x].push_back(id);
      }
      for (const std::vector<MOpId>& members : touching) {
        nodes = add_interval_order(h, members, nodes, edges);
      }
      break;
    }
  }

  FastCheckResult result;
  std::vector<std::uint32_t> hi(nodes, 0);
  {
    const Graph base(nodes, edges);
    const std::vector<Node> order = base.topological_order();
    if (order.size() < nodes) {
      result.detail = kCyclicBaseOrder;
      return result;
    }
    std::copy(ord.begin(), ord.end(), hi.begin());
    for (const Node u : order) {
      for (const Node v : base.successors(u)) hi[v] = std::max(hi[v], hi[u]);
    }
  }
  result.constraint_holds = true;

  // Each object's writers in ~ww order.
  std::vector<std::vector<MOpId>> writers(h.num_objects());
  for (const auto& [rank, id] : ranked) {
    for (const ObjectId x : h.mop(id).wobjects()) writers[x].push_back(id);
  }
  const auto ranked_above = [&ord](std::uint32_t bound, MOpId writer) {
    return bound < ord[writer];
  };
  for (MOpId alpha = 0; alpha < n; ++alpha) {
    for (const Operation& read : h.mop(alpha).external_reads()) {
      const MOpId beta = read.reads_from;
      const std::vector<MOpId>& xs = writers[read.object];
      std::uint32_t after = 0;  // the initial write precedes every writer
      if (beta != kInitialMOp) {
        if (!h.mop(beta).writes(read.object)) {
          result.detail = LegalityViolation{alpha, beta, beta, read.object}.to_string();
          return result;
        }
        after = ord[beta];
      }
      const auto next = std::upper_bound(xs.begin(), xs.end(), after, ranked_above);
      if (next == xs.end() || *next == alpha) continue;
      if (ord[*next] > hi[alpha]) {
        edges.emplace_back(alpha, *next);  // α ~rw~> γ
        continue;
      }
      // Every writer ranked in (after, hi(α)] overwrites the read before
      // α; report the smallest id, as the dense scan does.
      const auto last = std::upper_bound(next, xs.end(), hi[alpha], ranked_above);
      MOpId gamma = kInitialMOp;
      for (auto it = next; it != last; ++it) {
        if (*it != alpha) gamma = std::min(gamma, *it);
      }
      result.detail = LegalityViolation{alpha, beta, gamma, read.object}.to_string();
      return result;
    }
  }
  result.legal = true;

  const std::vector<Node> order = Graph(nodes, edges).topological_order();
  MOCC_ASSERT_MSG(order.size() == nodes,
                  "Lemmas 3/4: a legal WW-constrained history keeps ~+ acyclic");
  std::vector<MOpId> witness;
  witness.reserve(n);
  for (const Node v : order) {
    if (v < n) witness.push_back(v);
  }
  MOCC_ASSERT_MSG(is_legal_sequential_order(h, witness),
                  "Lemma 5 witness failed replay — checker bug");
  result.admissible = true;
  result.witness = std::move(witness);
  return result;
}

}  // namespace mocc::core
