// Unit tests for the MScript bytecode: builder, validation,
// serialization, VM semantics, the canonical operation library, and
// determinism properties.
#include <gtest/gtest.h>

#include "mscript/builder.hpp"
#include "mscript/library.hpp"
#include "mscript/program.hpp"
#include "mscript/vm.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mocc::mscript {
namespace {

ExecutionResult run_on(const Program& program, std::vector<Value> initial) {
  VectorStore store(initial.size());
  store.values() = std::move(initial);
  return Vm::run(program, store);
}

// -------------------------------------------------------------- builder

TEST(Builder, EmitsValidatedProgram) {
  Builder b("t");
  const auto r = b.reg();
  b.load_const(r, 5).ret(r);
  const Program p = b.build();
  EXPECT_TRUE(p.validate().empty());
  EXPECT_EQ(p.name(), "t");
  EXPECT_TRUE(p.is_query());
}

TEST(Builder, FootprintDerivedFromCode) {
  Builder b("t");
  const auto r = b.reg();
  b.read(r, 3).write(5, r).ret(r);
  const Program p = b.build();
  EXPECT_EQ(p.may_read(), (std::vector<ObjectId>{3}));
  EXPECT_EQ(p.may_write(), (std::vector<ObjectId>{5}));
  EXPECT_TRUE(p.is_update());
}

TEST(Builder, DeclareWidensFootprint) {
  Builder b("t");
  b.declare_read(1).declare_write(2);
  b.ret_const(0);
  const Program p = b.build();
  EXPECT_EQ(p.may_read(), (std::vector<ObjectId>{1}));
  EXPECT_EQ(p.may_write(), (std::vector<ObjectId>{2}));
  EXPECT_TRUE(p.is_update());  // conservative: may write even if it never does
}

TEST(Builder, ForwardLabelsResolve) {
  Builder b("t");
  const auto r = b.reg();
  b.load_const(r, 0)
      .jump("end")
      .load_const(r, 99)  // skipped
      .label("end")
      .ret(r);
  const auto result = run_on(b.build(), {});
  EXPECT_EQ(result.return_value, 0);
}

// ----------------------------------------------------------- validation

TEST(Validate, RejectsReadOutsideFootprint) {
  Instruction read;
  read.op = OpCode::kReadObj;
  read.a = 0;
  read.obj = 7;
  Instruction ret;
  ret.op = OpCode::kReturn;
  Program p({read, ret}, 1, /*may_read=*/{}, /*may_write=*/{}, "bad");
  EXPECT_EQ(p.validate(), "instruction 0 (read): object not in may_read");
}

TEST(Validate, RejectsWriteOutsideFootprint) {
  Instruction load;
  load.op = OpCode::kLoadConst;
  Instruction write;
  write.op = OpCode::kWriteObj;
  write.obj = 3;
  Instruction ret;
  ret.op = OpCode::kReturn;
  Program p({load, write, ret}, 1, /*may_read=*/{}, /*may_write=*/{4}, "bad");
  EXPECT_EQ(p.validate(), "instruction 1 (write): object not in may_write");
}

TEST(Validate, RejectsBadRegister) {
  Instruction ins;
  ins.op = OpCode::kMove;
  ins.a = 5;  // only 1 register
  ins.b = 0;
  Instruction ret;
  ret.op = OpCode::kReturn;
  Program p({ins, ret}, 1, {}, {}, "bad");
  EXPECT_EQ(p.validate(), "instruction 0 (move): bad register");
}

TEST(Validate, RejectsJumpOutOfRange) {
  Instruction jmp;
  jmp.op = OpCode::kJump;
  jmp.target = 9;
  Program p({jmp}, 1, {}, {}, "bad");
  EXPECT_EQ(p.validate(), "instruction 0 (jump): jump target out of range");
}

TEST(Validate, RejectsUnknownOpcode) {
  Instruction load;
  load.op = OpCode::kLoadConst;
  Instruction unknown;
  unknown.op = static_cast<OpCode>(99);
  Instruction ret;
  ret.op = OpCode::kReturn;
  Program p({load, unknown, ret}, 1, {}, {}, "bad");
  EXPECT_EQ(p.validate(), "instruction 1 (?): unknown opcode");
}

TEST(Validate, RejectsFallOffEnd) {
  Instruction ins;
  ins.op = OpCode::kLoadConst;
  Program p({ins}, 1, {}, {}, "bad");
  EXPECT_EQ(p.validate(),
            "program can fall off the end (last instruction must be return or jump)");
}

TEST(Validate, RejectsEmptyProgram) {
  Program p({}, 1, {}, {}, "bad");
  EXPECT_EQ(p.validate(), "empty program");
}

// ---------------------------------------------------------------- codec

TEST(Codec, RoundTripPreservesProgram) {
  const Program original = lib::make_dcas(1, 2, 10, 20, 11, 21);
  util::ByteWriter w;
  original.encode(w);
  util::ByteReader r(w.bytes());
  const Program decoded = Program::decode(r);
  EXPECT_TRUE(decoded == original);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, RoundTripAllLibraryPrograms) {
  const std::vector<ObjectId> objs{0, 2, 4};
  const std::vector<Value> vals{5, 6, 7};
  const std::vector<Program> programs = {
      lib::make_read(1),
      lib::make_write(1, 9),
      lib::make_read_all(objs),
      lib::make_m_assign(objs, vals),
      lib::make_cas(0, 1, 2),
      lib::make_dcas(0, 1, 0, 0, 1, 1),
      lib::make_sum(objs),
      lib::make_transfer(0, 1, 5),
      lib::make_fetch_add(2, 3),
      lib::make_multi_add(objs, vals),
  };
  for (const Program& p : programs) {
    util::ByteWriter w;
    p.encode(w);
    util::ByteReader r(w.bytes());
    EXPECT_TRUE(Program::decode(r) == p) << p.name();
  }
}

#if GTEST_HAS_DEATH_TEST
// The instruction count is checked against the bytes left (20 per
// instruction) before the code vector is reserved.
TEST(CodecDeath, InstructionCountBeyondTheBufferAborts) {
  util::ByteWriter w;
  w.put_string("huge");
  w.put_u8(1);
  w.put_u32_vector({});
  w.put_u32_vector({});
  w.put_u32(0xFFFFFFFFu);
  util::ByteReader r(w.bytes());
  EXPECT_DEATH((void)Program::decode(r), "message underflow");
}
#endif  // GTEST_HAS_DEATH_TEST

// ------------------------------------------------------------------- vm

TEST(Vm, Arithmetic) {
  Builder b("t");
  const auto x = b.reg();
  const auto y = b.reg();
  const auto z = b.reg();
  b.load_const(x, 6).load_const(y, 7).mul(z, x, y).ret(z);
  EXPECT_EQ(run_on(b.build(), {}).return_value, 42);
}

TEST(Vm, SubAndCompare) {
  Builder b("t");
  const auto x = b.reg();
  const auto y = b.reg();
  const auto z = b.reg();
  b.load_const(x, 5)
      .load_const(y, 3)
      .sub(z, x, y)   // 2
      .cmp_lt(z, y, x)  // 1
      .ret(z);
  EXPECT_EQ(run_on(b.build(), {}).return_value, 1);
}

TEST(Vm, SignedOverflowWraps) {
  Builder b("t");
  const auto x = b.reg();
  const auto one = b.reg();
  const auto r = b.reg();
  b.load_const(x, std::numeric_limits<Value>::max())
      .load_const(one, 1)
      .add(r, x, one)
      .ret(r);
  EXPECT_EQ(run_on(b.build(), {}).return_value, std::numeric_limits<Value>::min());
}

TEST(Vm, RecordsAccessesInProgramOrder) {
  Builder b("t");
  const auto r = b.reg();
  b.read(r, 0).write(1, r).read(r, 1).ret(r);
  const auto result = run_on(b.build(), {5, 0});
  ASSERT_EQ(result.accesses.size(), 3u);
  EXPECT_FALSE(result.accesses[0].is_write);
  EXPECT_EQ(result.accesses[0].object, 0u);
  EXPECT_EQ(result.accesses[0].value, 5);
  EXPECT_TRUE(result.accesses[1].is_write);
  EXPECT_EQ(result.accesses[1].value, 5);
  EXPECT_EQ(result.accesses[2].value, 5);  // read-own-write
  EXPECT_EQ(result.objects_read(), (std::vector<ObjectId>{0, 1}));
  EXPECT_EQ(result.objects_written(), (std::vector<ObjectId>{1}));
}

TEST(Vm, LoopTerminates) {
  // Count down from 5.
  Builder b("loop");
  const auto i = b.reg();
  const auto one = b.reg();
  b.load_const(i, 5)
      .load_const(one, 1)
      .label("top")
      .jump_if_zero(i, "done")
      .sub(i, i, one)
      .jump("top")
      .label("done")
      .ret(i);
  const auto result = run_on(b.build(), {});
  EXPECT_EQ(result.return_value, 0);
  EXPECT_GT(result.steps, 10u);
}

// -------------------------------------------------------------- library

TEST(Library, ReadReturnsValue) {
  EXPECT_EQ(run_on(lib::make_read(1), {7, 9}).return_value, 9);
}

TEST(Library, WriteStores) {
  VectorStore store(2);
  Vm::run(lib::make_write(1, 33), store);
  EXPECT_EQ(store.values()[1], 33);
}

TEST(Library, ReadAllTouchesEverything) {
  const std::vector<ObjectId> objs{0, 1, 2};
  const auto result = run_on(lib::make_read_all(objs), {4, 5, 6});
  EXPECT_EQ(result.return_value, 6);  // last listed
  EXPECT_EQ(result.objects_read(), objs);
}

TEST(Library, MAssignWritesAll) {
  const std::vector<ObjectId> objs{0, 2};
  const std::vector<Value> vals{11, 22};
  VectorStore store(3);
  const auto result = Vm::run(lib::make_m_assign(objs, vals), store);
  EXPECT_EQ(result.return_value, 1);
  EXPECT_EQ(store.values(), (std::vector<Value>{11, 0, 22}));
}

TEST(Library, CasSucceedsOnMatch) {
  VectorStore store(1);
  store.values()[0] = 5;
  EXPECT_EQ(Vm::run(lib::make_cas(0, 5, 9), store).return_value, 1);
  EXPECT_EQ(store.values()[0], 9);
}

TEST(Library, CasFailsOnMismatch) {
  VectorStore store(1);
  store.values()[0] = 4;
  EXPECT_EQ(Vm::run(lib::make_cas(0, 5, 9), store).return_value, 0);
  EXPECT_EQ(store.values()[0], 4);
}

TEST(Library, DcasSucceedsWhenBothMatch) {
  VectorStore store(2);
  store.values() = {1, 2};
  const auto result = Vm::run(lib::make_dcas(0, 1, 1, 2, 10, 20), store);
  EXPECT_EQ(result.return_value, 1);
  EXPECT_EQ(store.values(), (std::vector<Value>{10, 20}));
  EXPECT_EQ(result.objects_written(), (std::vector<ObjectId>{0, 1}));
}

TEST(Library, DcasFailsWhenFirstMismatches) {
  VectorStore store(2);
  store.values() = {0, 2};
  const auto result = Vm::run(lib::make_dcas(0, 1, 1, 2, 10, 20), store);
  EXPECT_EQ(result.return_value, 0);
  EXPECT_EQ(store.values(), (std::vector<Value>{0, 2}));
  EXPECT_TRUE(result.objects_written().empty());
  // Still statically an update: the conservative rule in action.
  EXPECT_TRUE(lib::make_dcas(0, 1, 1, 2, 10, 20).is_update());
}

TEST(Library, DcasFailsWhenSecondMismatches) {
  VectorStore store(2);
  store.values() = {1, 0};
  const auto result = Vm::run(lib::make_dcas(0, 1, 1, 2, 10, 20), store);
  EXPECT_EQ(result.return_value, 0);
  EXPECT_EQ(store.values(), (std::vector<Value>{1, 0}));
}

TEST(Library, DcasShortCircuitSkipsSecondReadNever) {
  // Both reads always happen (footprint honesty): check the access record.
  VectorStore store(2);
  store.values() = {99, 0};
  const auto result = Vm::run(lib::make_dcas(0, 1, 1, 2, 10, 20), store);
  EXPECT_EQ(result.objects_read(), (std::vector<ObjectId>{0, 1}));
}

TEST(Library, SumAddsUp) {
  const std::vector<ObjectId> objs{0, 1, 2};
  EXPECT_EQ(run_on(lib::make_sum(objs), {1, 2, 3}).return_value, 6);
  EXPECT_TRUE(lib::make_sum(objs).is_query());
}

TEST(Library, TransferMovesFundsWhenSufficient) {
  VectorStore store(2);
  store.values() = {10, 1};
  EXPECT_EQ(Vm::run(lib::make_transfer(0, 1, 4), store).return_value, 1);
  EXPECT_EQ(store.values(), (std::vector<Value>{6, 5}));
}

TEST(Library, TransferRefusesOverdraft) {
  VectorStore store(2);
  store.values() = {3, 1};
  EXPECT_EQ(Vm::run(lib::make_transfer(0, 1, 4), store).return_value, 0);
  EXPECT_EQ(store.values(), (std::vector<Value>{3, 1}));
}

TEST(Library, FetchAddReturnsOldValue) {
  VectorStore store(1);
  store.values()[0] = 40;
  EXPECT_EQ(Vm::run(lib::make_fetch_add(0, 2), store).return_value, 40);
  EXPECT_EQ(store.values()[0], 42);
}

TEST(Library, MultiAddAppliesDeltas) {
  const std::vector<ObjectId> objs{0, 1};
  const std::vector<Value> deltas{5, -2};
  VectorStore store(2);
  store.values() = {1, 10};
  Vm::run(lib::make_multi_add(objs, deltas), store);
  EXPECT_EQ(store.values(), (std::vector<Value>{6, 8}));
}

// ----------------------------------------------------- determinism prop

TEST(Determinism, SameProgramSameStoreSameOutcome) {
  // The replay property both protocols rely on: any program, run twice
  // against equal stores, produces identical stores, accesses, returns.
  util::Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const auto x1 = static_cast<ObjectId>(rng.next_below(4));
    const auto x2 = static_cast<ObjectId>(rng.next_below(4));
    const Program p =
        x1 == x2 ? lib::make_cas(x1, rng.next_in(0, 2), rng.next_in(0, 9))
                 : lib::make_dcas(x1, x2, rng.next_in(0, 2), rng.next_in(0, 2),
                                  rng.next_in(0, 9), rng.next_in(0, 9));
    std::vector<Value> initial;
    for (int i = 0; i < 4; ++i) initial.push_back(rng.next_in(0, 2));

    VectorStore s1(4);
    VectorStore s2(4);
    s1.values() = initial;
    s2.values() = initial;
    const auto r1 = Vm::run(p, s1);
    const auto r2 = Vm::run(p, s2);
    EXPECT_EQ(r1.return_value, r2.return_value);
    EXPECT_EQ(s1.values(), s2.values());
    EXPECT_EQ(r1.accesses.size(), r2.accesses.size());
  }
}

TEST(Determinism, SerializedProgramReplaysIdentically) {
  util::Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const Program p = lib::make_transfer(0, 1, rng.next_in(1, 10));
    util::ByteWriter w;
    p.encode(w);
    util::ByteReader r(w.bytes());
    const Program q = Program::decode(r);

    std::vector<Value> initial{rng.next_in(0, 20), rng.next_in(0, 20)};
    VectorStore s1(2);
    VectorStore s2(2);
    s1.values() = initial;
    s2.values() = initial;
    EXPECT_EQ(Vm::run(p, s1).return_value, Vm::run(q, s2).return_value);
    EXPECT_EQ(s1.values(), s2.values());
  }
}

}  // namespace
}  // namespace mocc::mscript
