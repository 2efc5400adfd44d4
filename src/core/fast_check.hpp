// Theorem-7 polynomial-time admissibility checking for constrained
// histories (§4).
//
// For a history under the OO- or WW-constraint, admissibility is
// equivalent to legality (Theorem 7), and legality is a polynomial check.
// The witness construction follows Lemmas 3–5: build the read-write
// precedence ~rw (D4.11), close ~H ∪ ~rw into the extended relation ~+
// (D4.12) — irreflexive by Lemma 3/4 — and linearize; Lemma 5 (P4.5)
// guarantees *any* linear extension of ~+ is a legal sequential history
// equivalent to the input.
//
// `fast_check` and `fast_check_condition` build that construction
// literally, over dense n×n relations: they are the oracle that tests
// and the E4/E5 experiments compare against. `sparse_fast_check` reaches
// the same verdict on O(n log n) edges when ~ww ranks every update
// (sparse_check.cpp, DESIGN.md §7); every production verdict runs it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/constraints.hpp"
#include "core/history.hpp"
#include "core/relations.hpp"
#include "util/relation.hpp"

namespace mocc::core {

/// FastCheckResult::detail when the base order, ~ww included, is cyclic.
inline constexpr const char* kCyclicBaseOrder = "base order is cyclic";

struct FastCheckResult {
  /// Whether the claimed constraint actually holds for the history; if it
  /// does not, Theorem 7 does not apply and `admissible` is meaningless.
  bool constraint_holds = false;
  bool legal = false;
  bool admissible = false;
  /// A witness legal sequential order when admissible.
  std::optional<std::vector<MOpId>> witness;
  /// Populated with a diagnostic when something failed.
  std::string detail;
};

/// Polynomial check of admissibility w.r.t. the transitive closure of
/// `base`, valid for histories satisfying `constraint` (kOO or kWW).
FastCheckResult fast_check(const History& h, const util::BitRelation& base,
                           Constraint constraint);

/// Convenience: base order for the given consistency condition augmented
/// with the ~ww order of `ww_ranks` (the atomic broadcast delivery order
/// or the commit-tid order, which is what makes protocol histories
/// WW-constrained). `ww_ranks` has one entry per m-operation of `h`.
FastCheckResult fast_check_condition(const History& h, Condition condition,
                                     const WwRanks& ww_ranks, Constraint constraint);

/// The verdict of `fast_check_condition(h, condition, ww_ranks,
/// Constraint::kWW)` without dense relations. When every m-operation
/// that writes carries a rank and no two ranks are equal, the updates
/// reaching an m-operation α form a ~ww prefix, so one number — hi(α),
/// the highest rank with a path to α — decides legality (Lemma 6,
/// Theorem 7) and a second topological sort yields the witness.
/// Otherwise it returns the dense result. Same flags, same witness
/// guarantee, and the same detail for a cyclic base order or an illegal
/// read.
FastCheckResult sparse_fast_check(const History& h, Condition condition,
                                  const WwRanks& ww_ranks);

}  // namespace mocc::core
