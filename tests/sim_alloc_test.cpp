// Heap allocations of a simulated run and of its verdict, at perfbench's
// sim-posthoc shape (4 processes, 8 objects, mlin over the sequencer,
// lan delays, 4000 m-operations). Every update is decoded and replayed
// at every replica, so a per-message allocation shows here many times
// over: the run must stay within its per-m-operation budget (DESIGN.md
// §11). After history(), check_fast for the claimed condition and
// audit() must reuse that History and that sparse pass instead of
// rebuilding them.
//
// The counting operator new is global, so this file is its own test
// executable. Sanitizers interpose operator new themselves: those builds
// skip these tests and leave the allocator alone.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "api/system.hpp"

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
// gtest's main runs the tests on one thread, and the simulator runs on
// the thread that calls it; nothing else allocates while a counted call
// runs.
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

namespace mocc::api {
namespace {

/// Heap allocations per m-operation that run_workload may make (13.97 at
/// the time of writing, since sequencer deliveries hand the frame's bytes
/// through instead of copying them).
constexpr double kRunBudgetPerMop = 14.0;

constexpr std::size_t kProcesses = 4;
constexpr std::size_t kOpsPerProcess = 1000;
constexpr std::size_t kMops = kProcesses * kOpsPerProcess;

template <typename F>
std::size_t allocations_in(F&& f) {
  const std::size_t before = g_allocations;
  f();
  return g_allocations - before;
}

SystemConfig posthoc_config() {
  SystemConfig config;
  config.num_processes = kProcesses;
  config.num_objects = 8;
  config.protocol = "mlin";
  config.broadcast = "sequencer";
  config.delay = "lan";
  config.seed = 77;
  return config;
}

protocols::WorkloadParams posthoc_params() {
  protocols::WorkloadParams params;
  params.ops_per_process = kOpsPerProcess;
  params.update_ratio = 0.5;
  params.footprint = 2;
  return params;
}

TEST(SimAllocations, RunWorkloadStaysWithinItsBudget) {
#if MOCC_ALLOC_TEST_SANITIZED
  GTEST_SKIP() << "sanitizers replace the counting operator new";
#endif
  System system(posthoc_config());
  protocols::WorkloadReport report;
  const std::size_t run = allocations_in([&] { report = system.run_workload(posthoc_params()); });
  ASSERT_EQ(report.queries + report.updates, kMops);
  const double per_mop = static_cast<double>(run) / static_cast<double>(kMops);
  EXPECT_LE(per_mop, kRunBudgetPerMop) << run << " allocations for " << kMops << " m-ops";
}

TEST(SimAllocations, VerdictBuildsOneHistoryAndOneSparsePass) {
#if MOCC_ALLOC_TEST_SANITIZED
  GTEST_SKIP() << "sanitizers replace the counting operator new";
#endif
  System system(posthoc_config());
  system.run_workload(posthoc_params());
  const core::Condition claimed = claimed_condition(system.config().protocol);

  // Building a History costs several allocations per m-operation.
  std::size_t size = 0;
  const std::size_t history = allocations_in([&] { size = system.history().size(); });
  ASSERT_EQ(size, kMops);
  ASSERT_GE(history, kMops);

  // check_fast is one sparse pass over the shared History: a few
  // vectors, not a rebuild.
  bool admissible = false;
  const std::size_t fast =
      allocations_in([&] { admissible = system.check_fast(claimed).admissible; });
  EXPECT_TRUE(admissible);
  EXPECT_LT(fast, kMops / 8);

  // audit() reuses both the History and that pass, so it allocates less
  // than the pass alone did.
  bool ok = false;
  const std::size_t audit = allocations_in([&] { ok = system.audit().ok; });
  EXPECT_TRUE(ok);
  EXPECT_LT(audit, fast);
}

}  // namespace
}  // namespace mocc::api
