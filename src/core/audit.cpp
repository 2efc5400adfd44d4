#include "core/audit.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <utility>

#include "core/constraints.hpp"
#include "core/fast_check.hpp"
#include "core/legality.hpp"
#include "util/assert.hpp"

namespace mocc::core {

TimestampView::TimestampView(const std::vector<util::VersionVector>& timestamps) {
  ts_.reserve(timestamps.size());
  for (const util::VersionVector& ts : timestamps) ts_.push_back(&ts);
}

ProtocolTrace protocol_trace(const History& h, Condition condition, const WwRanks& ww_ranks,
                             const TimestampView& timestamps) {
  MOCC_ASSERT_MSG(condition != Condition::kMNormality,
                  "~>H- is Figure 4's (m-SC) or Figure 6's (m-lin)");
  MOCC_ASSERT(ww_ranks.size() == h.size());
  ProtocolTrace trace;
  trace.sync_order = reads_from_order(h);
  if (condition == Condition::kMSequentialConsistency) {
    trace.sync_order.merge(process_order(h));  // Figure 4: ~P ∪ ~rf ∪ ~ww
  } else {
    trace.sync_order.merge(real_time_order(h));  // Figure 6: ~rf ∪ ~t ∪ ~ww
  }
  trace.sync_order.merge(ww_order(ww_ranks));
  trace.timestamps.reserve(timestamps.size());
  for (std::size_t id = 0; id < timestamps.size(); ++id) trace.timestamps.push_back(timestamps[id]);
  // Broadcast position present <=> conservatively an update.
  for (const auto& rank : ww_ranks) trace.is_update.push_back(rank.has_value());
  return trace;
}

void AuditReport::fail(std::string message) {
  ok = false;
  violations.push_back(std::move(message));
}

std::string AuditReport::to_string() const {
  if (ok) return "audit: ok";
  std::ostringstream out;
  out << "audit: " << violations.size() << " violation(s)\n";
  for (const auto& v : violations) out << "  - " << v << "\n";
  return out.str();
}

namespace {

using Timestamps = TimestampView;

constexpr const char* kCyclicSyncOrder = "sync order ~>H- is cyclic";

/// P5.1: β ~>H− α with both queries must come from real-time order
/// (resp(β) < inv(α)).
void check_query_order(const History& h, MOpId b, MOpId a, AuditReport& report) {
  if (h.mop(b).response() < h.mop(a).invoke()) return;
  std::ostringstream out;
  out << "P5.1: queries m" << b << " ~> m" << a << " ordered without real-time precedence";
  report.fail(out.str());
}

void fail_p53(const Timestamps& ts, MOpId b, MOpId a, AuditReport& report) {
  std::ostringstream out;
  out << "P5.3: m" << b << " ~> m" << a << " but ts(m" << b << ")=" << ts[b].to_string()
      << " !<= ts(m" << a << ")=" << ts[a].to_string();
  report.fail(out.str());
}

void fail_p54(MOpId b, MOpId a, ObjectId x, AuditReport& report) {
  std::ostringstream out;
  out << "P5.4: m" << b << " ~> m" << a << ", x" << x << " in wobjects(m" << a
      << ") but ts[x] not strictly increasing";
  report.fail(out.str());
}

/// P5.3 / P5.4 (P5.5/P5.6 in the paper) on one ordered pair b ~> a: ts is
/// monotonic along ~>H and strictly increases on written components.
void check_timestamp_step(const History& h, const Timestamps& ts, MOpId b, MOpId a,
                          AuditReport& report) {
  if (!ts[b].pointwise_leq(ts[a])) fail_p53(ts, b, a, report);
  for (const ObjectId x : h.mop(a).wobjects()) {
    if (!(ts[b][x] < ts[a][x])) fail_p54(b, a, x, report);
  }
}

/// P5.7 / P5.8: reads-from pins versions.
void check_read_versions(const History& h, const Timestamps& ts, AuditReport& report) {
  for (MOpId alpha = 0; alpha < h.size(); ++alpha) {
    for (const Operation& read : h.mop(alpha).external_reads()) {
      if (read.reads_from == kInitialMOp) {
        // Version 0: the reader must not have advanced x past the write
        // it (possibly) performs itself.
        const std::uint64_t expected = h.mop(alpha).writes(read.object) ? 1 : 0;
        if (ts[alpha][read.object] < expected) {
          std::ostringstream out;
          out << "P5.7/8(init): m" << alpha << " reads x" << read.object
              << " from init but ts[x]=" << ts[alpha][read.object];
          report.fail(out.str());
        }
        continue;
      }
      const MOpId beta = read.reads_from;
      const ObjectId x = read.object;
      if (!h.mop(alpha).writes(x)) {
        if (ts[beta][x] != ts[alpha][x]) {
          std::ostringstream out;
          out << "P5.7: m" << alpha << " reads x" << x << " from m" << beta
              << " but ts(beta)[x]=" << ts[beta][x] << " != ts(alpha)[x]=" << ts[alpha][x];
          report.fail(out.str());
        }
      } else {
        if (ts[beta][x] + 1 != ts[alpha][x]) {
          std::ostringstream out;
          out << "P5.8: m" << alpha << " reads+writes x" << x << " from m" << beta
              << " but ts(beta)[x]=" << ts[beta][x] << ", ts(alpha)[x]=" << ts[alpha][x];
          report.fail(out.str());
        }
      }
    }
  }
}

/// P5.3 / P5.4 on the real-time edges: each α, in invocation order,
/// against the pointwise max of ts over the m-operations that responded
/// before inv(α). A violated component names the m-operation holding
/// the max, which is one real-time predecessor the pair fails with.
void check_real_time_steps(const History& h, const Timestamps& ts, AuditReport& report) {
  const std::size_t n = h.size();
  std::vector<MOpId> by_invoke(n);
  std::iota(by_invoke.begin(), by_invoke.end(), MOpId{0});
  std::vector<MOpId> by_response = by_invoke;
  std::stable_sort(by_invoke.begin(), by_invoke.end(), [&h](MOpId a, MOpId b) {
    return h.mop(a).invoke() < h.mop(b).invoke();
  });
  std::stable_sort(by_response.begin(), by_response.end(), [&h](MOpId a, MOpId b) {
    return h.mop(a).response() < h.mop(b).response();
  });
  std::vector<std::uint64_t> high(h.num_objects(), 0);
  std::vector<MOpId> holder(h.num_objects(), kInitialMOp);
  std::size_t responded = 0;
  for (const MOpId a : by_invoke) {
    const Time invoke = h.mop(a).invoke();
    for (; responded < n && h.mop(by_response[responded]).response() < invoke; ++responded) {
      const MOpId b = by_response[responded];
      for (std::size_t x = 0; x < high.size(); ++x) {
        if (holder[x] == kInitialMOp || ts[b][x] > high[x]) {
          high[x] = ts[b][x];
          holder[x] = b;
        }
      }
    }
    if (responded == 0) continue;
    for (std::size_t x = 0; x < high.size(); ++x) {
      if (high[x] > ts[a][x]) {
        fail_p53(ts, holder[x], a, report);
        break;
      }
    }
    for (const ObjectId x : h.mop(a).wobjects()) {
      if (!(high[x] < ts[a][x])) fail_p54(holder[x], a, x, report);
    }
  }
}

}  // namespace

AuditReport audit_protocol_execution(const History& h, const ProtocolTrace& trace) {
  AuditReport report;
  const std::size_t n = h.size();
  MOCC_ASSERT(trace.sync_order.size() == n);
  MOCC_ASSERT(trace.timestamps.size() == n);
  MOCC_ASSERT(trace.is_update.size() == n);

  const util::BitRelation closed = trace.sync_order.transitive_closure();
  const Timestamps timestamps(trace.timestamps);

  if (!closed.closed_is_irreflexive()) {
    report.fail(kCyclicSyncOrder);
    return report;
  }

  // P5.1 on the recorded edges: on a recorded execution this is
  // checkable directly from the time stamps.
  for (MOpId b = 0; b < n; ++b) {
    for (MOpId a = 0; a < n; ++a) {
      if (a == b || !trace.sync_order.has(b, a)) continue;
      if (!trace.is_update[b] && !trace.is_update[a]) check_query_order(h, b, a, report);
    }
  }

  // P5.2: any two (conservatively classified) updates are ordered.
  for (MOpId a = 0; a < n; ++a) {
    for (MOpId b = a + 1; b < n; ++b) {
      if (trace.is_update[a] && trace.is_update[b]) {
        if (!closed.has(a, b) && !closed.has(b, a)) {
          std::ostringstream out;
          out << "P5.2: updates m" << a << ", m" << b << " unordered";
          report.fail(out.str());
        }
      }
    }
  }

  // P5.3 / P5.4 on the closed relation.
  for (MOpId b = 0; b < n; ++b) {
    for (MOpId a = 0; a < n; ++a) {
      if (a != b && closed.has(b, a)) check_timestamp_step(h, timestamps, b, a, report);
    }
  }

  check_read_versions(h, timestamps, report);

  // Derived guarantees: Lemma 8 (WW-constraint) and Lemma 9 (legality).
  if (auto violation = find_constraint_violation(h, closed, Constraint::kWW)) {
    report.fail("Lemma 8 consequence failed: " + violation->to_string());
  }
  if (auto violation = find_legality_violation(h, closed)) {
    report.fail("Lemma 9 consequence failed: " + violation->to_string());
  }

  return report;
}

AuditReport sparse_audit(const History& h, Condition condition, const WwRanks& ww_ranks,
                         const Timestamps& timestamps, const FastCheckResult* fast) {
  MOCC_ASSERT_MSG(condition != Condition::kMNormality,
                  "~>H- is Figure 4's (m-SC) or Figure 6's (m-lin)");
  const std::size_t n = h.size();
  MOCC_ASSERT(ww_ranks.size() == n);
  MOCC_ASSERT(timestamps.size() == n);
  for (MOpId id = 0; id < n; ++id) {
    MOCC_ASSERT_MSG(timestamps[id].size() == h.num_objects(), "one timestamp entry per object");
  }
  AuditReport report;

  // ~ww in (rank, id) order, the order the dense ww_order gives tied ranks.
  std::vector<std::pair<std::uint64_t, MOpId>> ranked;
  for (MOpId id = 0; id < n; ++id) {
    if (ww_ranks[id].has_value()) ranked.emplace_back(*ww_ranks[id], id);
  }
  std::sort(ranked.begin(), ranked.end());
  const auto tied = [](const auto& a, const auto& b) { return a.first == b.first; };
  const bool distinct = std::adjacent_find(ranked.begin(), ranked.end(), tied) == ranked.end();
  WwRanks positions;
  if (!distinct) {
    positions.resize(n);
    for (std::size_t i = 0; i < ranked.size(); ++i) positions[ranked[i].second] = i;
  }

  // The cycle check, Lemma 8 and Lemma 9, on ~>H−'s closure.
  std::optional<FastCheckResult> own;
  if (!distinct || fast == nullptr) {
    own = sparse_fast_check(h, condition, distinct ? ww_ranks : positions);
    fast = &*own;
  }
  if (!fast->constraint_holds && fast->detail == kCyclicBaseOrder) {
    report.fail(kCyclicSyncOrder);
    return report;
  }

  // Reads-from edges, one per distinct (writer, reader) pair.
  std::vector<std::pair<MOpId, MOpId>> reads_from;
  std::vector<MOpId> writers;
  for (MOpId alpha = 0; alpha < n; ++alpha) {
    writers.clear();
    for (const Operation& read : h.mop(alpha).external_reads()) {
      if (read.reads_from != kInitialMOp) writers.push_back(read.reads_from);
    }
    std::sort(writers.begin(), writers.end());
    writers.erase(std::unique(writers.begin(), writers.end()), writers.end());
    for (const MOpId beta : writers) reads_from.emplace_back(beta, alpha);
  }
  const bool process_order = condition == Condition::kMSequentialConsistency;

  // P5.1 on reads-from and (Figure 4) process-order edges between queries.
  const auto query = [&ww_ranks](MOpId id) { return !ww_ranks[id].has_value(); };
  for (const auto& [beta, alpha] : reads_from) {
    if (query(beta) && query(alpha)) check_query_order(h, beta, alpha, report);
  }
  if (process_order) {
    // Responses rise along a process, so each query checks only the
    // process's previous query.
    for (ProcessId p = 0; p < h.num_processes(); ++p) {
      MOpId previous = kInitialMOp;
      for (const MOpId id : h.process_ops(p)) {
        if (!query(id)) continue;
        if (previous != kInitialMOp) check_query_order(h, previous, id, report);
        previous = id;
      }
    }
  }

  // P5.2: ranked m-operations are the updates, ordered iff ranks differ.
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    if (!tied(ranked[i - 1], ranked[i])) continue;
    std::ostringstream out;
    out << "P5.2: updates m" << ranked[i - 1].second << ", m" << ranked[i].second
        << " unordered: both hold ww rank " << ranked[i].first;
    report.fail(out.str());
  }

  // P5.3 / P5.4 on the generating edges.
  for (const auto& [beta, alpha] : reads_from) {
    check_timestamp_step(h, timestamps, beta, alpha, report);
  }
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    check_timestamp_step(h, timestamps, ranked[i - 1].second, ranked[i].second, report);
  }
  if (process_order) {
    for (ProcessId p = 0; p < h.num_processes(); ++p) {
      const std::vector<MOpId>& ops = h.process_ops(p);
      for (std::size_t i = 1; i < ops.size(); ++i) {
        check_timestamp_step(h, timestamps, ops[i - 1], ops[i], report);
      }
    }
  } else {
    check_real_time_steps(h, timestamps, report);
  }

  check_read_versions(h, timestamps, report);

  if (!fast->constraint_holds) {
    report.fail("Lemma 8 consequence failed: " + fast->detail);
  } else if (!fast->legal) {
    report.fail("Lemma 9 consequence failed: " + fast->detail);
  }
  return report;
}

}  // namespace mocc::core
