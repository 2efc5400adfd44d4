#include "core/verdict.hpp"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace mocc::core {

Verdict check_history(const History& h, Condition condition, const WwRanks& ww_ranks,
                      std::uint64_t exact_budget, Value initial_value) {
  MOCC_ASSERT_MSG(ww_ranks.size() == h.size(), "one ww rank slot per m-operation");
  Verdict verdict;
  std::ostringstream detail;
  const auto conclude = [&](Outcome outcome) {
    verdict.outcome = outcome;
    verdict.detail = detail.str();
    return std::move(verdict);
  };

  std::string why;
  if (!h.well_formed(&why)) {
    detail << "history is not well-formed: " << why;
    return conclude(Outcome::kViolation);
  }
  if (!h.value_coherent(&why, initial_value)) {
    detail << "history is not value-coherent: " << why;
    return conclude(Outcome::kViolation);
  }

  std::vector<std::pair<std::uint64_t, MOpId>> ranked;
  for (MOpId id = 0; id < ww_ranks.size(); ++id) {
    if (ww_ranks[id].has_value()) ranked.emplace_back(*ww_ranks[id], id);
  }
  std::sort(ranked.begin(), ranked.end());
  const auto twin = std::adjacent_find(ranked.begin(), ranked.end(), [](auto a, auto b) {
    return a.first == b.first;
  });
  if (twin != ranked.end()) {
    detail << "two m-operations claim ww rank " << twin->first << " (m" << twin->second
           << " and m" << std::next(twin)->second << ")";
    return conclude(Outcome::kViolation);
  }

  const char* name = condition_name(condition);
  if (!ranked.empty()) {
    verdict.fast = sparse_fast_check(h, condition, ww_ranks);
    if (verdict.fast->admissible) {
      detail << name << ": admissible (Theorem 7 fast check)";
      return conclude(Outcome::kOk);
    }
    detail << name << " VIOLATION (Theorem 7 fast check: " << verdict.fast->detail << ")";
    return conclude(Outcome::kViolation);
  }
  if (exact_budget == 0) {
    detail << name << ": no ww order and an exact budget of 0, admissibility not searched";
    return conclude(Outcome::kOk);
  }
  AdmissibilityOptions options;
  options.max_states = exact_budget;
  verdict.exact = check_condition(h, condition, options);
  if (!verdict.exact->completed) {
    detail << name << ": undecided (exact check exhausted its budget of " << exact_budget
           << " states)";
    return conclude(Outcome::kUndecided);
  }
  const bool admissible = verdict.exact->admissible;
  detail << name << (admissible ? ": admissible" : " VIOLATION") << " (exact check, "
         << verdict.exact->states_visited << " states searched)";
  return conclude(admissible ? Outcome::kOk : Outcome::kViolation);
}

}  // namespace mocc::core
