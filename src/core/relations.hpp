// Order relations over a history's m-operations (§2.1, §2.3).
//
// Each builder returns a BitRelation over m-operation ids. The consistency
// conditions are parameterized by which orders the base relation ~>H must
// contain:
//
//   m-sequential consistency : process order ∪ reads-from
//   m-linearizability        : process order ∪ reads-from ∪ real-time
//   m-normality              : process order ∪ reads-from ∪ object order
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/history.hpp"
#include "util/relation.hpp"

namespace mocc::core {

/// Which consistency condition a check targets (§2.3).
enum class Condition {
  kMSequentialConsistency,
  kMLinearizability,
  kMNormality,
};

const char* condition_name(Condition c);

/// α ~P~> β : same process, α issued before β.
util::BitRelation process_order(const History& h);

/// β ~rf~> α : α reads from β (D4.3).
util::BitRelation reads_from_order(const History& h);

/// α ~t~> β : resp(α) < inv(β) in real time.
util::BitRelation real_time_order(const History& h);

/// α ~xo~> β : objects(α) ∩ objects(β) ≠ ∅ and resp(α) < inv(β).
util::BitRelation object_order(const History& h);

/// Per m-operation, its position in the ~ww total order — the atomic
/// broadcast delivery position or the commit tid — or nullopt for
/// m-operations outside that order (queries, protocols without one).
using WwRanks = std::vector<std::optional<std::uint64_t>>;

/// α ~ww~> β : both ranked and rank(α) < rank(β). The one place ~ww is
/// constructed: every ranked pair, over ranks.size() m-operations.
util::BitRelation ww_order(const WwRanks& ranks);

/// The base relation ~>H for the given condition (NOT transitively
/// closed; callers close it once).
util::BitRelation base_order(const History& h, Condition condition);

/// Convenience: transitively closed base order.
util::BitRelation closed_base_order(const History& h, Condition condition);

}  // namespace mocc::core
