// E10 — Multicore execution engine: committed m-ops/sec vs threads and
// contention.
//
// Real threads, one shared store, OCC commit (src/exec): each point
// runs a fixed total m-operation budget split across the workers and
// reports wall-clock throughput (this binary is where wall time IS the
// measurement — the JSON artifact's E10 records zero the gauge in smoke
// mode instead). The contention legs match run_e10: "low" spreads a
// 4-object footprint uniformly over 4096 objects, "high" drives
// zipf(0.9) skew into 64 objects so validation and lock aborts actually
// happen. The post-run admissibility verdict is exported as verify_ok
// so a throughput number from an unverified run cannot be quoted by
// accident.
//
// Counters: exec_committed, exec_abort_validation, exec_abort_lock,
// exec_abandoned, exec_retries_{n,mean,p99}, exec_abort_rate,
// exec_tput_mops, verify_ok.
#include "common.hpp"

#include "exec/verify.hpp"

namespace mocc::bench {
namespace {

void Exec(::benchmark::State& state, std::size_t threads, std::size_t objects,
          double zipf_skew, bool audit) {
  exec::ExecResult result;
  exec::VerifyReport verdict;
  for (auto _ : state) {
    exec::ExecConfig config;
    config.threads = threads;
    config.objects = objects;
    config.mops_per_thread = 100000 / threads;
    config.footprint = 4;
    config.query_ratio = 0.4;
    config.rmw_ratio = 0.5;
    config.zipf_skew = zipf_skew;
    config.seed = 42;
    result = exec::run(config);
    // Pause: the verdict is correctness accounting, not the measured
    // hot path.
    state.PauseTiming();
    exec::VerifyOptions verify;
    verify.run_audit = audit;
    verdict = exec::verify_execution(result, verify);
    state.ResumeTiming();
  }
  set_exec_counters(state, result);
  state.counters["verify_ok"] = verdict.ok ? 1.0 : 0.0;
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * result.stats.committed));
}

void register_all() {
  struct Leg {
    const char* name;
    std::size_t objects;
    double zipf_skew;
    bool audit;
  };
  // The real-time contract on the high-contention leg only, as in
  // run_e10: the low-contention legs abort ~never.
  constexpr Leg kLegs[] = {{"low", 4096, 0.0, false}, {"high", 64, 0.9, true}};
  for (const Leg& leg : kLegs) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      auto* b = ::benchmark::RegisterBenchmark(
          (std::string("E10/exec/") + leg.name + "/t" + std::to_string(threads))
              .c_str(),
          [threads, leg](::benchmark::State& state) {
            Exec(state, threads, leg.objects, leg.zipf_skew, leg.audit);
          });
      b->Iterations(1)->Unit(::benchmark::kMillisecond)->UseRealTime();
    }
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace mocc::bench
