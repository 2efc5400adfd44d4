#include "mscript/builder.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mocc::mscript {

Builder::Reg Builder::reg() {
  MOCC_ASSERT_MSG(next_reg_ < 256, "register budget exhausted");
  return static_cast<Reg>(next_reg_++);
}

Builder& Builder::load_const(Reg dst, Value v) {
  Instruction ins;
  ins.op = OpCode::kLoadConst;
  ins.a = dst;
  ins.imm = v;
  code_.push_back(ins);
  return *this;
}

Builder& Builder::move(Reg dst, Reg src) {
  Instruction ins;
  ins.op = OpCode::kMove;
  ins.a = dst;
  ins.b = src;
  code_.push_back(ins);
  return *this;
}

Builder& Builder::read(Reg dst, ObjectId obj) {
  Instruction ins;
  ins.op = OpCode::kReadObj;
  ins.a = dst;
  ins.obj = obj;
  code_.push_back(ins);
  may_read_.push_back(obj);
  return *this;
}

Builder& Builder::write(ObjectId obj, Reg src) {
  Instruction ins;
  ins.op = OpCode::kWriteObj;
  ins.a = src;
  ins.obj = obj;
  code_.push_back(ins);
  may_write_.push_back(obj);
  return *this;
}

namespace {
Instruction arith(OpCode op, Builder::Reg dst, Builder::Reg lhs, Builder::Reg rhs) {
  Instruction ins;
  ins.op = op;
  ins.a = dst;
  ins.b = lhs;
  ins.c = rhs;
  return ins;
}
}  // namespace

Builder& Builder::add(Reg dst, Reg lhs, Reg rhs) {
  code_.push_back(arith(OpCode::kAdd, dst, lhs, rhs));
  return *this;
}

Builder& Builder::sub(Reg dst, Reg lhs, Reg rhs) {
  code_.push_back(arith(OpCode::kSub, dst, lhs, rhs));
  return *this;
}

Builder& Builder::mul(Reg dst, Reg lhs, Reg rhs) {
  code_.push_back(arith(OpCode::kMul, dst, lhs, rhs));
  return *this;
}

Builder& Builder::cmp_eq(Reg dst, Reg lhs, Reg rhs) {
  code_.push_back(arith(OpCode::kCmpEq, dst, lhs, rhs));
  return *this;
}

Builder& Builder::cmp_lt(Reg dst, Reg lhs, Reg rhs) {
  code_.push_back(arith(OpCode::kCmpLt, dst, lhs, rhs));
  return *this;
}

Builder& Builder::cmp_le(Reg dst, Reg lhs, Reg rhs) {
  code_.push_back(arith(OpCode::kCmpLe, dst, lhs, rhs));
  return *this;
}

Builder& Builder::jump(const std::string& label) {
  Instruction ins;
  ins.op = OpCode::kJump;
  fixups_.emplace_back(code_.size(), label);
  code_.push_back(ins);
  return *this;
}

Builder& Builder::jump_if_zero(Reg test, const std::string& label) {
  Instruction ins;
  ins.op = OpCode::kJumpIfZero;
  ins.a = test;
  fixups_.emplace_back(code_.size(), label);
  code_.push_back(ins);
  return *this;
}

Builder& Builder::jump_if_nonzero(Reg test, const std::string& label) {
  Instruction ins;
  ins.op = OpCode::kJumpIfNonZero;
  ins.a = test;
  fixups_.emplace_back(code_.size(), label);
  code_.push_back(ins);
  return *this;
}

Builder& Builder::ret(Reg value) {
  Instruction ins;
  ins.op = OpCode::kReturn;
  ins.a = value;
  code_.push_back(ins);
  return *this;
}

Builder& Builder::ret_const(Value v) {
  const Reg r = reg();
  load_const(r, v);
  return ret(r);
}

Builder& Builder::label(const std::string& name) {
  MOCC_ASSERT_MSG(find_label(name) == labels_.end(), "duplicate label");
  labels_.emplace_back(name, static_cast<std::uint32_t>(code_.size()));
  return *this;
}

std::vector<std::pair<std::string, std::uint32_t>>::const_iterator Builder::find_label(
    const std::string& name) const {
  return std::find_if(labels_.begin(), labels_.end(),
                      [&name](const auto& entry) { return entry.first == name; });
}

Builder& Builder::declare_read(ObjectId obj) {
  may_read_.push_back(obj);
  return *this;
}

Builder& Builder::declare_write(ObjectId obj) {
  may_write_.push_back(obj);
  return *this;
}

Program Builder::build() {
  for (const auto& [pc, label] : fixups_) {
    const auto it = find_label(label);
    MOCC_ASSERT_MSG(it != labels_.end(), "undefined label");
    MOCC_ASSERT_MSG(it->second < code_.size(), "label points past program end");
    code_[pc].target = it->second;
  }
  const auto regs = static_cast<std::uint8_t>(next_reg_ == 0 ? 1 : next_reg_);
  Program program(std::move(code_), regs, std::move(may_read_), std::move(may_write_),
                  std::move(name_));
  const std::string err = program.validate();
  MOCC_ASSERT_MSG(err.empty(), err.c_str());
  return program;
}

}  // namespace mocc::mscript
