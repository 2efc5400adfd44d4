// Legality, the read-write precedence ~rw, and the extended relation ~+
// (§2.2 and §4, D4.6 / D4.11 / D4.12).
//
// A read is legal if it does not read from an overwritten write: for every
// triple of interfering m-operations (α reads X from β, γ writes into X),
// the ordering β ~> γ ~> α must not hold. D4.6 phrases legality of a whole
// history as: for all interfering (α, β, γ), ¬(β ~>H γ) ∨ ¬(γ ~>H α).
#pragma once

#include <optional>
#include <string>

#include "core/history.hpp"
#include "util/relation.hpp"

namespace mocc::core {

struct LegalityViolation {
  MOpId alpha = 0;  // the reader
  MOpId beta = 0;   // the writer read from; kInitialMOp, printed "init", for the initial write
  /// The interposed overwriter; equal to `beta` when β never writes the
  /// object, so the read names a value nobody stored there.
  MOpId gamma = 0;
  ObjectId object = 0;
  std::string to_string() const;
};

/// D4.6 over the (transitively closed) relation `order`, plus the
/// premise D4.6 takes for granted: a read's named writer writes the
/// object. Reads are scanned in (α, program order); the first violating
/// read is returned with its smallest-id overwriter, or nullopt if the
/// history is legal.
std::optional<LegalityViolation> find_legality_violation(const History& h,
                                                         const util::BitRelation& order);

inline bool legal(const History& h, const util::BitRelation& order) {
  return !find_legality_violation(h, order).has_value();
}

/// D4.11: α ~rw~> γ iff some β interferes with them and β ~>H γ. Intuition:
/// in any legal sequential extension γ (which overwrites what α read) must
/// come after α.
util::BitRelation rw_precedence(const History& h, const util::BitRelation& order);

/// D4.12: the extended relation ~+H = (~H ∪ ~rw)+ . Returned transitively
/// closed; Lemmas 3 and 4 guarantee irreflexivity when the history is
/// legal and under OO- or WW-constraint (callers should still check
/// closed_is_irreflexive when the precondition is not established).
util::BitRelation extended_relation(const History& h, const util::BitRelation& order);

/// Replay check: is the given total order of all m-operations a *legal
/// sequential* history equivalent to h? Every external read must see the
/// most recent preceding (or initial) write to its object.
bool is_legal_sequential_order(const History& h, const std::vector<MOpId>& order);

}  // namespace mocc::core
