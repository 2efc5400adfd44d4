// Fluent assembler for MScript programs.
//
// Collects instructions and labels, resolves forward references, derives
// the may-read/may-write footprint from the emitted READ/WRITE
// instructions (callers can widen it with `declare_*` for programs whose
// footprint should be conservative beyond what the code touches).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "mscript/program.hpp"

namespace mocc::mscript {

class Builder {
 public:
  /// Reserves room for a small program (every library program with a
  /// footprint of up to four objects), so that building one allocates
  /// each of the Program's vectors once.
  explicit Builder(std::string name) : name_(std::move(name)) {
    code_.reserve(16);
    may_read_.reserve(4);
    may_write_.reserve(4);
  }

  using Reg = std::uint8_t;

  /// Allocates a fresh register (max 255 per program).
  Reg reg();

  Builder& load_const(Reg dst, Value v);
  Builder& move(Reg dst, Reg src);
  Builder& read(Reg dst, ObjectId obj);
  Builder& write(ObjectId obj, Reg src);
  Builder& add(Reg dst, Reg lhs, Reg rhs);
  Builder& sub(Reg dst, Reg lhs, Reg rhs);
  Builder& mul(Reg dst, Reg lhs, Reg rhs);
  Builder& cmp_eq(Reg dst, Reg lhs, Reg rhs);
  Builder& cmp_lt(Reg dst, Reg lhs, Reg rhs);
  Builder& cmp_le(Reg dst, Reg lhs, Reg rhs);
  Builder& jump(const std::string& label);
  Builder& jump_if_zero(Reg test, const std::string& label);
  Builder& jump_if_nonzero(Reg test, const std::string& label);
  Builder& ret(Reg value);
  /// Convenience: return constant (uses a scratch register).
  Builder& ret_const(Value v);

  /// Binds `label` to the next emitted instruction.
  Builder& label(const std::string& name);

  /// Widen the declared footprint beyond the instructions emitted so far.
  Builder& declare_read(ObjectId obj);
  Builder& declare_write(ObjectId obj);

  /// Resolves labels and validates; aborts on malformed programs
  /// (builder misuse is a programming error in this codebase).
  Program build();

 private:
  std::vector<std::pair<std::string, std::uint32_t>>::const_iterator find_label(
      const std::string& name) const;

  std::string name_;
  std::vector<Instruction> code_;
  std::vector<std::pair<std::string, std::uint32_t>> labels_;
  std::vector<std::pair<std::size_t, std::string>> fixups_;  // (pc, label)
  std::vector<ObjectId> may_read_;
  std::vector<ObjectId> may_write_;
  std::uint16_t next_reg_ = 0;
};

}  // namespace mocc::mscript
