// Protocol audit: the paper's correctness properties P5.1–P5.8 (§5).
//
// Theorem 10 reduces protocol correctness to eight properties of the
// per-m-operation timestamps and the synchronization order ~>H−. The
// protocols in src/protocols record both for every execution; this audit
// re-checks the properties on the recorded run, turning the paper's proof
// obligations into machine-checked runtime oracles. Any violation means a
// protocol bug (or a broken atomic broadcast underneath).
//
// `sparse_audit` is the production audit (api::System::audit). Pointwise
// ≤ on timestamps is transitive, so every closed-pair property follows
// from the generating edges of ~>H− — reads-from, the ~ww chain between
// consecutive ranks, and process order (Figure 4) or real time
// (Figure 6) — and it runs in O((n + E)·objects). `audit_protocol_execution`
// checks the same properties literally, on the closed n×n relation of a
// ProtocolTrace: it is the oracle the tests compare against.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/fast_check.hpp"
#include "core/history.hpp"
#include "core/relations.hpp"
#include "util/relation.hpp"
#include "util/timestamp.hpp"

namespace mocc::core {

/// ts(α) per m-operation, read where it is stored: a vector of them, or
/// (ExecutionRecorder::timestamps) the recorder's own records, uncopied.
/// The timestamps must outlive the view.
class TimestampView {
 public:
  TimestampView(const std::vector<util::VersionVector>& timestamps);  // implicit
  explicit TimestampView(std::vector<const util::VersionVector*> timestamps)
      : ts_(std::move(timestamps)) {}

  std::size_t size() const { return ts_.size(); }
  const util::VersionVector& operator[](std::size_t id) const { return *ts_[id]; }

 private:
  std::vector<const util::VersionVector*> ts_;
};

/// Everything a protocol execution must expose for the dense audit.
struct ProtocolTrace {
  /// ~>H− : the union the protocol defines (Figure 4: ~P ∪ ~rf ∪ ~ww;
  /// Figure 6: ~rf ∪ ~t ∪ ~ww), NOT transitively closed.
  util::BitRelation sync_order;
  /// ts(α) = ts(finish(α)) per m-operation (D5.2 / D5.7).
  std::vector<util::VersionVector> timestamps;
  /// The paper's conservative update classification ("we treat an
  /// m-operation as an update if it can potentially write"): true for
  /// m-operations that were atomically broadcast, even when the execution
  /// happened to write nothing (e.g. a failed DCAS). P5.1 and P5.2 are
  /// stated in terms of this classification, not the recorded write sets.
  std::vector<bool> is_update;
};

/// The trace of one execution for `condition`'s ~>H− (as in sparse_audit):
/// reads-from, process order (m-SC) or real time (m-lin), and ~ww from
/// `ww_ranks`, which also classify the updates.
ProtocolTrace protocol_trace(const History& h, Condition condition, const WwRanks& ww_ranks,
                             const TimestampView& timestamps);

struct AuditReport {
  bool ok = true;
  std::vector<std::string> violations;

  void fail(std::string message);
  std::string to_string() const;
};

/// Checks P5.1–P5.4 and P5.7–P5.8 (Theorem 10's hypotheses) plus the
/// derived WW-constraint (Lemma 8) and legality (Lemma 9) on the closed
/// relation. `trace.sync_order` must relate ids of `h`. The test oracle.
AuditReport audit_protocol_execution(const History& h, const ProtocolTrace& trace);

/// The same properties on the generating edges. `condition` picks ~>H−:
/// m-sequential consistency is Figure 4's (~P ∪ ~rf ∪ ~ww), m-linearizability
/// Figure 6's (~rf ∪ ~t ∪ ~ww). An m-operation is a (conservative) update
/// iff `ww_ranks` ranks it; `timestamps` holds ts(α) per m-operation, all
/// of h.num_objects() entries.
///
///   - The cycle check, Lemma 8 and Lemma 9 are one sparse_fast_check.
///     Under m-linearizability its base adds process order, which has the
///     same closure when each process invokes strictly after its previous
///     response, as api::System::submit and protocols::run_workload do.
///   - P5.3/P5.4 hold on every closed pair iff they hold on every
///     generating edge: ≤ is transitive, and strictness comes from the
///     last edge into α. Real time is one sweep in invocation order
///     against the pointwise max of ts over the m-operations responded.
///   - P5.1 is checked on reads-from and process-order edges between two
///     unranked m-operations; real-time edges satisfy it by construction.
///   - P5.2 holds iff the ranks are distinct. The dense audit orders tied
///     ranks by id and stays silent; this one names the pair.
///
/// With distinct ranks and that spacing it rejects exactly when the dense
/// audit does, and every property it names the dense audit names too:
/// one message per violating edge rather than per closed pair.
///
/// `fast`, when given, is sparse_fast_check(h, condition, ww_ranks) as
/// the caller already ran it (api::System::check_fast's memo). It stands
/// in for the audit's own pass when the ranks are distinct; with tied
/// ranks the audit checks the rank positions itself.
AuditReport sparse_audit(const History& h, Condition condition, const WwRanks& ww_ranks,
                         const TimestampView& timestamps,
                         const FastCheckResult* fast = nullptr);

}  // namespace mocc::core
