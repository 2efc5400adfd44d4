// MScript: a tiny deterministic bytecode for m-operations.
//
// The paper models an m-operation as a "deterministic procedure" of read
// and write operations on shared objects (§2.1). Both protocols (§5) rely
// on shipping that procedure to every replica via atomic broadcast and
// replaying it there with an identical outcome. MScript is the concrete
// form of such a procedure in this library:
//
//   - register machine, 64-bit signed integer values;
//   - READ/WRITE against a store of shared objects;
//   - arithmetic, comparison, and conditional branches (so that e.g. DCAS
//     can decide whether to write based on the values it read);
//   - a declared *may-read* / *may-write* object footprint. The footprint
//     is conservative: the set of objects an execution actually touches is
//     always a subset. The protocols follow the paper's rule of treating
//     any m-operation with a non-empty may-write set as an update
//     m-operation ("we take a conservative approach and treat an
//     m-operation as an update m-operation if it can potentially write to
//     some object").
//
// Programs serialize to bytes (ByteWriter format) so the simulator carries
// them as ordinary message payloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace mocc::mscript {

using Value = std::int64_t;
using ObjectId = std::uint32_t;

enum class OpCode : std::uint8_t {
  kLoadConst = 0,  // r[a] <- imm
  kMove = 1,       // r[a] <- r[b]
  kReadObj = 2,    // r[a] <- store[obj]
  kWriteObj = 3,   // store[obj] <- r[a]
  kAdd = 4,        // r[a] <- r[b] + r[c]
  kSub = 5,        // r[a] <- r[b] - r[c]
  kMul = 6,        // r[a] <- r[b] * r[c]
  kCmpEq = 7,      // r[a] <- (r[b] == r[c])
  kCmpLt = 8,      // r[a] <- (r[b] <  r[c])
  kCmpLe = 9,      // r[a] <- (r[b] <= r[c])
  kJump = 10,      // pc <- target
  kJumpIfZero = 11,  // if r[a] == 0: pc <- target
  kJumpIfNonZero = 12,  // if r[a] != 0: pc <- target
  kReturn = 13,    // halt; return value r[a]
};

struct Instruction {
  OpCode op{OpCode::kReturn};
  std::uint8_t a = 0;  // destination / tested register
  std::uint8_t b = 0;  // first source register
  std::uint8_t c = 0;  // second source register
  ObjectId obj = 0;    // object operand (kReadObj / kWriteObj)
  std::uint32_t target = 0;  // jump target (kJump*)
  Value imm = 0;       // immediate (kLoadConst)
};

/// A validated MScript program together with its declared object footprint.
class Program {
 public:
  Program() = default;
  Program(std::vector<Instruction> code, std::uint8_t num_regs,
          std::vector<ObjectId> may_read, std::vector<ObjectId> may_write,
          std::string name);

  const std::vector<Instruction>& code() const { return code_; }
  std::uint8_t num_regs() const { return num_regs_; }

  /// Sorted, deduplicated footprints.
  const std::vector<ObjectId>& may_read() const { return may_read_; }
  const std::vector<ObjectId>& may_write() const { return may_write_; }

  /// Paper's update/query split: an m-operation is an update iff it can
  /// potentially write (conservative, decided statically).
  bool is_update() const { return !may_write_.empty(); }
  bool is_query() const { return may_write_.empty(); }

  /// Human-readable label for traces ("dcas", "transfer", ...).
  const std::string& name() const { return name_; }

  /// Structural validation: register indices in range, jump targets in
  /// range, every READ object in may_read, every WRITE object in
  /// may_write, program non-empty and ends in control flow that cannot
  /// fall off the end. Returns an error description or empty string.
  std::string validate() const;

  /// The bytes encode() writes.
  std::size_t encoded_size() const;
  void encode(util::ByteWriter& out) const;
  static Program decode(util::ByteReader& in);
  /// decode() into `out`, reusing its vectors' capacity: a replica that
  /// decodes every delivered update into one Program stops allocating.
  static void decode(util::ByteReader& in, Program& out);

  bool operator==(const Program& other) const;

 private:
  std::vector<Instruction> code_;
  std::uint8_t num_regs_ = 0;
  std::vector<ObjectId> may_read_;
  std::vector<ObjectId> may_write_;
  std::string name_;
};

const char* opcode_name(OpCode op);

/// Disassembly for debugging and traces.
std::string to_string(const Program& program);

}  // namespace mocc::mscript
