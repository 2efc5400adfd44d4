// m-operations: the paper's unit of atomicity (§2.1).
//
// An m-operation is a sequence of read/write operations, possibly spanning
// several objects, executed by one process between an invocation event and
// a response event. This type is the *record* of one executed m-operation:
// what it read (and from whom), what it wrote, and when it ran.
#pragma once

#include <string>
#include <vector>

#include "core/types.hpp"

namespace mocc::core {

enum class OpType : std::uint8_t { kRead, kWrite };

/// One read or write within an m-operation.
struct Operation {
  OpType type = OpType::kRead;
  ObjectId object = 0;
  Value value = 0;
  /// For reads: the m-operation whose write produced this value
  /// (kInitialMOp for the initializing write). Ignored for writes.
  MOpId reads_from = kInitialMOp;

  static Operation read(ObjectId object, Value value, MOpId reads_from) {
    return Operation{OpType::kRead, object, value, reads_from};
  }
  static Operation write(ObjectId object, Value value) {
    return Operation{OpType::kWrite, object, value, kInitialMOp};
  }
};

class MOperation {
 public:
  MOperation() = default;
  MOperation(ProcessId process, std::vector<Operation> ops, Time invoke, Time response,
             std::string label = "");

  ProcessId process() const { return process_; }
  const std::vector<Operation>& ops() const { return ops_; }
  Time invoke() const { return invoke_; }
  Time response() const { return response_; }
  const std::string& label() const { return label_; }

  /// objects(α): every object read or written.
  const std::vector<ObjectId>& objects() const { return objects_; }
  /// robjects(α) / wobjects(α): objects read / written (paper §4).
  const std::vector<ObjectId>& robjects() const { return robjects_; }
  const std::vector<ObjectId>& wobjects() const { return wobjects_; }

  bool writes(ObjectId x) const;
  bool reads(ObjectId x) const;
  bool touches(ObjectId x) const;

  /// Update iff it writes some object; query otherwise (D in §4).
  bool is_update() const { return !wobjects_.empty(); }
  bool is_query() const { return wobjects_.empty(); }

  /// *External* reads: the paper discards reads that are preceded by a
  /// write to the same object within the same m-operation (such reads are
  /// satisfied internally and constrain nothing across m-operations).
  /// Pairs are (object, reads_from) in program order.
  const std::vector<Operation>& external_reads() const { return external_reads_; }

  /// *Final* writes: the last write per object (earlier same-object writes
  /// are overwritten within the m-operation and cannot be read by others),
  /// sorted by object.
  const std::vector<Operation>& final_writes() const { return final_writes_; }

  /// The value the final write stores into x (a binary search); requires
  /// writes(x).
  Value final_write_value(ObjectId x) const;

  std::string to_string() const;

 private:
  ProcessId process_ = 0;
  std::vector<Operation> ops_;
  Time invoke_ = 0;
  Time response_ = 0;
  std::string label_;

  // Derived, computed once at construction.
  std::vector<ObjectId> objects_;
  std::vector<ObjectId> robjects_;
  std::vector<ObjectId> wobjects_;
  std::vector<Operation> external_reads_;
  std::vector<Operation> final_writes_;
};

}  // namespace mocc::core
