#include "mscript/vm.hpp"

#include <algorithm>
#include <array>

#include "util/assert.hpp"

namespace mocc::mscript {

namespace {
std::vector<ObjectId> dedup_kind(const std::vector<AccessRecord>& accesses, bool writes) {
  std::vector<ObjectId> out;
  for (const AccessRecord& a : accesses) {
    if (a.is_write == writes) out.push_back(a.object);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}
}  // namespace

std::vector<ObjectId> ExecutionResult::objects_read() const {
  return dedup_kind(accesses, /*writes=*/false);
}

std::vector<ObjectId> ExecutionResult::objects_written() const {
  return dedup_kind(accesses, /*writes=*/true);
}

ExecutionResult Vm::run(const Program& program, StoreView& store) {
  ExecutionResult result;
  run(program, store, result);
  return result;
}

void Vm::run(const Program& program, StoreView& store, ExecutionResult& result) {
  MOCC_DEBUG_ASSERT(program.validate().empty());
  result.return_value = 0;
  result.accesses.clear();
  // One access per declared object is what straight-line programs make.
  result.accesses.reserve(program.may_read().size() + program.may_write().size());
  result.steps = 0;
  // Register indices are u8, so every program's registers fit here.
  std::array<Value, 256> regs;
  std::fill_n(regs.begin(), program.num_regs(), Value{0});
  const auto& code = program.code();
  std::size_t pc = 0;
  for (;;) {
    MOCC_ASSERT_MSG(result.steps < kMaxSteps, "MScript program exceeded step limit");
    ++result.steps;
    MOCC_DEBUG_ASSERT(pc < code.size());
    const Instruction& ins = code[pc];
    switch (ins.op) {
      case OpCode::kLoadConst:
        regs[ins.a] = ins.imm;
        break;
      case OpCode::kMove:
        regs[ins.a] = regs[ins.b];
        break;
      case OpCode::kReadObj: {
        const Value v = store.read(ins.obj);
        regs[ins.a] = v;
        result.accesses.push_back({/*is_write=*/false, ins.obj, v});
        break;
      }
      case OpCode::kWriteObj:
        store.write(ins.obj, regs[ins.a]);
        result.accesses.push_back({/*is_write=*/true, ins.obj, regs[ins.a]});
        break;
      case OpCode::kAdd:
        regs[ins.a] = static_cast<Value>(static_cast<std::uint64_t>(regs[ins.b]) +
                                         static_cast<std::uint64_t>(regs[ins.c]));
        break;
      case OpCode::kSub:
        regs[ins.a] = static_cast<Value>(static_cast<std::uint64_t>(regs[ins.b]) -
                                         static_cast<std::uint64_t>(regs[ins.c]));
        break;
      case OpCode::kMul:
        regs[ins.a] = static_cast<Value>(static_cast<std::uint64_t>(regs[ins.b]) *
                                         static_cast<std::uint64_t>(regs[ins.c]));
        break;
      case OpCode::kCmpEq:
        regs[ins.a] = regs[ins.b] == regs[ins.c] ? 1 : 0;
        break;
      case OpCode::kCmpLt:
        regs[ins.a] = regs[ins.b] < regs[ins.c] ? 1 : 0;
        break;
      case OpCode::kCmpLe:
        regs[ins.a] = regs[ins.b] <= regs[ins.c] ? 1 : 0;
        break;
      case OpCode::kJump:
        pc = ins.target;
        continue;
      case OpCode::kJumpIfZero:
        if (regs[ins.a] == 0) {
          pc = ins.target;
          continue;
        }
        break;
      case OpCode::kJumpIfNonZero:
        if (regs[ins.a] != 0) {
          pc = ins.target;
          continue;
        }
        break;
      case OpCode::kReturn:
        result.return_value = regs[ins.a];
        return;
    }
    ++pc;
  }
}

Value VectorStore::read(ObjectId object) {
  MOCC_ASSERT(object < values_.size());
  return values_[object];
}

void VectorStore::write(ObjectId object, Value value) {
  MOCC_ASSERT(object < values_.size());
  values_[object] = value;
}

}  // namespace mocc::mscript
