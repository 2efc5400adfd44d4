// Heap allocations on MScript's per-message path. Every replica decodes
// and validates every update program it applies, so a valid program
// must validate without allocating, decoding may allocate only the
// vectors the Program keeps (and nothing when it reuses a Program's),
// and encoding sizes its buffer once. An error message formatted for every
// instruction checked shows here as one allocation per instruction,
// long before it shows in wall time.
//
// The counting operator new is global, so this file is its own test
// executable. Sanitizers interpose operator new themselves: those builds
// skip these tests and leave the allocator alone.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "mscript/library.hpp"
#include "mscript/program.hpp"
#include "util/bytes.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MOCC_ALLOC_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define MOCC_ALLOC_TEST_SANITIZED 1
#endif
#endif
#ifndef MOCC_ALLOC_TEST_SANITIZED
#define MOCC_ALLOC_TEST_SANITIZED 0
#endif

namespace {
// gtest's main runs the tests on one thread; nothing else allocates
// while a counted call runs.
std::size_t g_allocations = 0;
}  // namespace

#if !MOCC_ALLOC_TEST_SANITIZED
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace mocc::mscript {
namespace {

template <typename F>
std::size_t allocations_in(F&& f) {
  const std::size_t before = g_allocations;
  f();
  return g_allocations - before;
}

TEST(MScriptAllocations, ValidProgramsValidateWithoutAllocating) {
#if MOCC_ALLOC_TEST_SANITIZED
  GTEST_SKIP() << "sanitizers replace the counting operator new";
#endif
  const std::vector<ObjectId> objects{0, 1, 2, 3};
  const Program dcas = lib::make_dcas(1, 2, 10, 20, 11, 21);
  const Program sum = lib::make_sum(objects);
  ASSERT_EQ(dcas.code().size(), 16u);
  ASSERT_EQ(sum.code().size(), 10u);
  for (const Program* program : {&dcas, &sum}) {
    bool valid = false;
    EXPECT_EQ(allocations_in([&] { valid = program->validate().empty(); }), 0u)
        << program->name();
    EXPECT_TRUE(valid) << program->name();
  }
}

TEST(MScriptAllocations, DecodeAllocatesOnlyTheProgramsVectors) {
#if MOCC_ALLOC_TEST_SANITIZED
  GTEST_SKIP() << "sanitizers replace the counting operator new";
#endif
  const Program original = lib::make_dcas(1, 2, 10, 20, 11, 21);
  util::ByteWriter w;
  original.encode(w);
  const std::vector<std::uint8_t> wire = w.take();
  util::ByteReader r(wire);
  Program decoded;
  // may_read, may_write and code; the name fits the small-string buffer.
  EXPECT_EQ(allocations_in([&] { decoded = Program::decode(r); }), 3u);
  EXPECT_TRUE(decoded == original);
}

TEST(MScriptAllocations, DecodeIntoAProgramOfTheSameShapeAllocatesNothing) {
#if MOCC_ALLOC_TEST_SANITIZED
  GTEST_SKIP() << "sanitizers replace the counting operator new";
#endif
  // A replica decodes every delivered update into one reused Program.
  const Program original = lib::make_dcas(1, 2, 10, 20, 11, 21);
  util::ByteWriter w;
  original.encode(w);
  const std::vector<std::uint8_t> wire = w.take();
  Program decoded = lib::make_dcas(3, 4, 0, 0, 1, 1);
  util::ByteReader r(wire);
  EXPECT_EQ(allocations_in([&] { Program::decode(r, decoded); }), 0u);
  EXPECT_TRUE(decoded == original);
}

TEST(MScriptAllocations, EncodeAllocatesOnce) {
#if MOCC_ALLOC_TEST_SANITIZED
  GTEST_SKIP() << "sanitizers replace the counting operator new";
#endif
  const Program program = lib::make_dcas(1, 2, 10, 20, 11, 21);
  util::ByteWriter w;
  EXPECT_EQ(allocations_in([&] { program.encode(w); }), 1u);
  EXPECT_EQ(w.size(), program.encoded_size());
}

}  // namespace
}  // namespace mocc::mscript
