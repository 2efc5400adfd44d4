#include "core/fast_check.hpp"

#include "core/legality.hpp"
#include "util/assert.hpp"

namespace mocc::core {

FastCheckResult fast_check(const History& h, const util::BitRelation& base,
                           Constraint constraint) {
  FastCheckResult result;
  const util::BitRelation closed = base.transitive_closure();

  if (!closed.closed_is_irreflexive()) {
    result.detail = kCyclicBaseOrder;
    return result;
  }

  if (const auto violation = find_constraint_violation(h, closed, constraint)) {
    result.detail = violation->to_string();
    return result;
  }
  result.constraint_holds = true;

  if (const auto violation = find_legality_violation(h, closed)) {
    result.detail = violation->to_string();
    return result;  // Lemma 6: not legal => not admissible
  }
  result.legal = true;

  // Lemmas 3/4: for a legal history under OO/WW the extended relation is
  // an irreflexive partial order; Lemma 5: any linear extension is a
  // legal sequential history.
  const util::BitRelation extended = extended_relation(h, closed);
  if (!extended.closed_is_irreflexive()) {
    // Reachable only if the claimed constraint was WO-only or the
    // precondition was otherwise violated; report rather than abort so
    // the checker can be used exploratively.
    result.detail = "extended relation ~+ is cyclic (Lemma 3/4 precondition violated)";
    result.legal = true;
    result.admissible = false;
    return result;
  }

  const auto order = extended.topological_order();
  MOCC_ASSERT_MSG(order.has_value(), "irreflexive closed relation must linearize");
  std::vector<MOpId> witness(order->begin(), order->end());
  MOCC_ASSERT_MSG(is_legal_sequential_order(h, witness),
                  "Lemma 5 witness failed replay — checker bug");
  result.admissible = true;
  result.witness = std::move(witness);
  return result;
}

FastCheckResult fast_check_condition(const History& h, Condition condition,
                                     const WwRanks& ww_ranks, Constraint constraint) {
  MOCC_ASSERT_MSG(ww_ranks.size() == h.size(), "one ww rank slot per m-operation");
  util::BitRelation base = base_order(h, condition);
  base.merge(ww_order(ww_ranks));
  return fast_check(h, base, constraint);
}

}  // namespace mocc::core
