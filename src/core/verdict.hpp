// The admissibility verdict on one history: the checker pipeline behind
// audit-from-trace, the mocc-check terminal states and the chaos
// post-hoc pass (the stream runs the same steps incrementally,
// stream_check.hpp). Steps, in order, stopping at the first that decides:
//
//   1. well-formedness (§2.2);
//   2. value coherence (History::value_coherent);
//   3. no two m-operations share a ~ww rank;
//   4. if every m-operation that writes carries a rank (vacuously so in an
//      update-free history), ~ww totally orders the updates
//      (WW-constraint) and Theorem 7 makes admissibility the polynomial
//      fast check, run sparsely (sparse_fast_check). A violation then
//      means "not admissible with the declared ~ww";
//      System::check_exact tells that from an inadmissible history.
//      Otherwise the exact search, bounded by `exact_budget` states: an
//      exhausted budget is `undecided`, never a violation; a budget of 0
//      skips the search. Every simulated protocol ranks its updates
//      (abcast position or lock point), so only external input (traces
//      of older builds, hand-built histories) reaches the search.
//
// The P5.x protocol audit (audit.hpp, core::sparse_audit) stays
// separate: it needs the protocol's timestamps, which a history does not
// carry.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/admissibility.hpp"
#include "core/fast_check.hpp"
#include "core/history.hpp"
#include "core/relations.hpp"

namespace mocc::core {

enum class Outcome : std::uint8_t { kOk, kViolation, kUndecided };

struct Verdict {
  Outcome outcome = Outcome::kOk;
  /// Why it is a violation or undecided, or a one-line account of the pass.
  std::string detail;
  std::optional<FastCheckResult> fast;        ///< set when step 4 ran the Theorem-7 check
  std::optional<AdmissibilityResult> exact;  ///< set when step 4 ran the exact search

  bool ok() const { return outcome == Outcome::kOk; }
  bool violation() const { return outcome == Outcome::kViolation; }
};

/// Runs the steps above. `ww_ranks` has one entry per m-operation of `h`;
/// `initial_value` is the value of the paper's initializing write.
Verdict check_history(const History& h, Condition condition, const WwRanks& ww_ranks,
                      std::uint64_t exact_budget, Value initial_value = 0);

}  // namespace mocc::core
