// Histories: executions of the concurrent system (§2.2).
//
// A history is a set of m-operations together with the orders induced by
// the execution: per-process program order, the reads-from relation, the
// real-time order of non-overlapping m-operations, and the object order
// (real-time restricted to m-operations sharing an object). The relation
// builders live in relations.hpp; this type owns the m-operations, the
// structural predicates (well-formedness, equivalence) and the paper's
// conflict / interfere / rfobjects notions (§4, D4.1–D4.3).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/moperation.hpp"
#include "core/types.hpp"

namespace mocc::core {

class History {
 public:
  History(std::size_t num_processes, std::size_t num_objects);

  /// Appends an m-operation; returns its id. Operations' reads_from
  /// fields must reference already-added m-operations or kInitialMOp.
  MOpId add(MOperation mop);
  /// Reserves room for `n` m-operations.
  void reserve(std::size_t n) { mops_.reserve(n); }

  std::size_t size() const { return mops_.size(); }
  std::size_t num_processes() const { return num_processes_; }
  std::size_t num_objects() const { return num_objects_; }

  const MOperation& mop(MOpId id) const;
  const std::vector<MOperation>& mops() const { return mops_; }

  /// Ids of the m-operations issued by `process`, in program order
  /// (order of addition; add() enforces non-overlap per process).
  const std::vector<MOpId>& process_ops(ProcessId process) const;

  /// Well-formedness (§2.2): every process subhistory is sequential —
  /// each m-operation of a process responds before the next is invoked.
  /// add() enforces this; the method re-verifies (used by tests and by
  /// code that constructs histories by deserialization).
  bool well_formed(std::string* why = nullptr) const;

  /// Value coherence: every external read labelled "reads from β" must
  /// carry exactly the value β's final write stored into that object (or
  /// `initial_value` when β is kInitialMOp), and β must actually write
  /// the object. The admissibility checkers order m-operations by the
  /// reads-from *edges* alone, so a replica that loses a delivery can
  /// still produce edge-wise legal histories where the read VALUE
  /// diverges from the writer's record — this catches those.
  bool value_coherent(std::string* why = nullptr, Value initial_value = 0) const;

  /// rfobjects(H, α, β) — the objects α reads from β (D: §4).
  /// β may be kInitialMOp.
  std::vector<ObjectId> rfobjects(MOpId alpha, MOpId beta) const;

  /// β ~rf~> α : α reads from β the value of some object (D4.3).
  bool reads_from(MOpId beta, MOpId alpha) const;

  /// conflict(α, β) (D4.1): distinct, share an object, at least one
  /// writes it.
  bool conflict(MOpId a, MOpId b) const;

  /// interfere(H, α, β, γ) (D4.2): distinct, and γ writes some object
  /// that α reads from β.
  bool interfere(MOpId alpha, MOpId beta, MOpId gamma) const;

  /// Histories are equivalent iff they have the same per-process
  /// subhistories (same m-operations in the same program order) and the
  /// same reads-from relation (§2.2). Operations are compared
  /// structurally; invocation/response times are *not* part of the
  /// subhistory content.
  bool equivalent(const History& other) const;

  /// Fills in reads_from links by matching read values to unique writer
  /// values. Requires that across the whole history every (object, value)
  /// pair is written by at most one m-operation (the standard
  /// "distinct-writes" assumption used when the reads-from relation is
  /// not recorded). Returns false if some read is unmatchable or a value
  /// is ambiguous.
  bool derive_reads_from(Value initial_value = 0);

  std::string to_string() const;

 private:
  std::size_t num_processes_;
  std::size_t num_objects_;
  std::vector<MOperation> mops_;
  std::vector<std::vector<MOpId>> by_process_;
};

}  // namespace mocc::core
