// Quickstart: a replicated multi-object store under m-linearizability.
//
//   ./quickstart [--protocol=mlin] [--processes=4] [--objects=8]
//                [--delay=lan] [--seed=42]
//
// Creates a system, performs a handful of multi-object operations (an
// atomic m-register assignment, a DCAS, a cross-object sum), prints the
// outcomes, then audits the recorded execution against the paper's
// correctness properties and checks the claimed consistency condition.
#include <cstdio>
#include <vector>

#include "api/system.hpp"
#include "mscript/library.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace mocc;
  util::CliArgs args(argc, argv);

  api::SystemConfig config;
  config.protocol = args.get_string("protocol", "mlin");
  config.num_processes = static_cast<std::size_t>(args.get_int("processes", 4));
  config.num_objects = static_cast<std::size_t>(args.get_int("objects", 8));
  config.delay = args.get_string("delay", "lan");
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

  std::printf("mocc quickstart: protocol=%s processes=%zu objects=%zu delay=%s\n\n",
              config.protocol.c_str(), config.num_processes, config.num_objects,
              config.delay.c_str());

  api::System system(config);

  // 1. Process 0 atomically initializes objects 0..2 in ONE m-operation.
  const std::vector<mscript::ObjectId> objs{0, 1, 2};
  const std::vector<mscript::Value> vals{10, 20, 30};
  system.submit(0, 1, mscript::lib::make_m_assign(objs, vals),
                [](const protocols::InvocationOutcome& out) {
                  std::printf("[t=%llu] P0 m-assign {x0,x1,x2} := {10,20,30}\n",
                              static_cast<unsigned long long>(out.response));
                });

  // 2. Process 1 tries DCAS(x0: 10 -> 11, x1: 20 -> 21).
  system.submit(1, 2, mscript::lib::make_dcas(0, 1, 10, 20, 11, 21),
                [](const protocols::InvocationOutcome& out) {
                  std::printf("[t=%llu] P1 DCAS -> %s\n",
                              static_cast<unsigned long long>(out.response),
                              out.return_value == 1 ? "succeeded" : "failed");
                });

  // 3. Process 2 reads the sum of all three — one atomic multi-object
  //    query, not three separate reads.
  system.submit(2, 3, mscript::lib::make_sum(objs),
                [](const protocols::InvocationOutcome& out) {
                  std::printf("[t=%llu] P2 sum(x0,x1,x2) = %lld\n",
                              static_cast<unsigned long long>(out.response),
                              static_cast<long long>(out.return_value));
                });

  // 4. Process 3 transfers 5 from x2 to x0 (conditional on funds).
  system.submit(3, 4, mscript::lib::make_transfer(2, 0, 5),
                [](const protocols::InvocationOutcome& out) {
                  std::printf("[t=%llu] P3 transfer x2 -> x0 (5): %s\n",
                              static_cast<unsigned long long>(out.response),
                              out.return_value == 1 ? "ok" : "insufficient");
                });

  system.run();

  std::printf("\nmessages on the wire: %llu (%llu bytes)\n",
              static_cast<unsigned long long>(system.traffic().messages),
              static_cast<unsigned long long>(system.traffic().bytes));

  // Every run is recorded as a checkable history.
  const auto history = system.history();
  std::printf("recorded history: %zu m-operations\n", history.size());

  // Check the condition this protocol actually claims: Figure 4 (mseq)
  // guarantees m-sequential consistency; everything else here is
  // m-linearizable.
  const core::Condition claimed = api::claimed_condition(config.protocol);
  if (system.supports_audit()) {
    const auto audit = system.audit();
    std::printf("P5.x audit: %s\n", audit.ok ? "ok" : audit.to_string().c_str());
    const auto fast = system.check_fast(claimed);
    std::printf("Theorem-7 check (%s): %s\n", core::condition_name(claimed),
                fast.admissible ? "admissible" : fast.detail.c_str());
  }
  const auto exact = system.check_exact(claimed);
  std::printf("exact check (%s): %s (%llu states)\n", core::condition_name(claimed),
              exact.admissible ? "admissible" : "NOT admissible",
              static_cast<unsigned long long>(exact.states_visited));

  const auto unused = args.unused();
  for (const auto& flag : unused) {
    std::fprintf(stderr, "warning: unused flag --%s\n", flag.c_str());
  }
  return exact.admissible ? 0 : 1;
}
