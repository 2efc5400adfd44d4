// E5 — Theorem 7 in practice: polynomial checking of constrained
// histories vs the exact exponential checker.
//
// Paper hook (§4): under the WW-constraint — which the §5 protocols
// enforce via atomic broadcast — admissibility ⟺ legality, so a
// protocol-generated history of m m-operations can be verified in
// polynomial time (fast_check) instead of exponential (check_admissible).
// Expected shape: the Theorem-7 checker scales to histories the exact
// checker cannot touch; on small histories both agree.
//
// Counter: mops = history size actually checked.
#include "common.hpp"
#include "core/admissibility.hpp"
#include "core/fast_check.hpp"

namespace mocc::bench {
namespace {

/// Protocol-generated history + its recorded ~ww order.
struct Recorded {
  core::History history;
  core::WwRanks ww_ranks;
};

Recorded record_history(std::size_t total_ops) {
  api::SystemConfig config;
  config.protocol = "mlin";
  config.num_processes = 4;
  config.num_objects = 8;
  config.delay = "lan";
  config.seed = 99;
  api::System system(config);
  protocols::WorkloadParams params;
  params.ops_per_process = total_ops / config.num_processes;
  params.update_ratio = 0.5;
  params.footprint = 2;
  system.run_workload(params);
  return Recorded{system.history(), system.recorder().ww_ranks()};
}

void FastChecker(::benchmark::State& state) {
  const auto total = static_cast<std::size_t>(state.range(0));
  const Recorded recorded = record_history(total);
  for (auto _ : state) {
    const auto result = core::fast_check_condition(
        recorded.history, core::Condition::kMLinearizability, recorded.ww_ranks,
        core::Constraint::kWW);
    ::benchmark::DoNotOptimize(result.admissible);
  }
  obs::Registry registry;
  registry.counter("mops").set(recorded.history.size());
  export_metrics(state, registry);
}

void ExactChecker(::benchmark::State& state, bool prune) {
  const auto total = static_cast<std::size_t>(state.range(0));
  const Recorded recorded = record_history(total);
  core::AdmissibilityOptions options;
  options.use_rw_pruning = prune;
  options.use_memoization = prune;
  options.max_states = 100'000'000;
  double states = 0;
  for (auto _ : state) {
    // The exact checker gets the same information (base order + ~ww).
    auto base = core::base_order(recorded.history, core::Condition::kMLinearizability);
    base.merge(core::ww_order(recorded.ww_ranks));
    const auto result = core::check_admissible(recorded.history, base, options);
    ::benchmark::DoNotOptimize(result.admissible);
    states = static_cast<double>(result.states_visited);
  }
  obs::Registry registry;
  registry.counter("mops").set(recorded.history.size());
  registry.gauge("states").set(states);
  export_metrics(state, registry);
}

void register_all() {
  ::benchmark::RegisterBenchmark("E5/theorem7_poly", FastChecker)
      ->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
      ->Unit(::benchmark::kMillisecond);
  // The exact checker on WW-constrained histories stays fast when armed
  // with rw-pruning (the extended order is nearly total) …
  ::benchmark::RegisterBenchmark("E5/exact_pruned",
                                 [](::benchmark::State& s) { ExactChecker(s, true); })
      ->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
      ->Unit(::benchmark::kMillisecond);
  // … but the raw backtracking search — what a verifier without Theorem 7
  // (and without the ~rw insight it is built on) would run — explores the
  // exponential space of query placements. Capped sizes.
  ::benchmark::RegisterBenchmark("E5/exact_raw",
                                 [](::benchmark::State& s) { ExactChecker(s, false); })
      ->Arg(16)->Arg(24)->Arg(32)->Arg(40)
      ->Unit(::benchmark::kMillisecond);
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace mocc::bench
