#include "protocols/workload.hpp"

#include <algorithm>
#include <memory>

#include "mscript/library.hpp"
#include "util/assert.hpp"

namespace mocc::protocols {

namespace {

/// Distinct objects, Zipf-weighted, in ascending order.
std::vector<mscript::ObjectId> pick_objects(std::size_t count, std::size_t num_objects,
                                            util::Rng& rng, util::ZipfGenerator& zipf) {
  count = std::min(count, num_objects);
  std::vector<mscript::ObjectId> chosen;
  chosen.reserve(count);
  while (chosen.size() < count) {
    const auto x = static_cast<mscript::ObjectId>(zipf.next(rng));
    const auto at = std::lower_bound(chosen.begin(), chosen.end(), x);
    if (at == chosen.end() || *at != x) chosen.insert(at, x);
  }
  return chosen;
}

struct Run;

/// One process's closed issue loop.
struct Loop {
  Run* run = nullptr;
  Replica* replica = nullptr;
  sim::NodeId node = 0;
  std::size_t remaining = 0;

  void issue();
};

/// What the loops of one run_workload share. Their closures hold plain
/// Loop pointers, which fit std::function's inline buffer, where a
/// shared_ptr capture would cost an allocation per closure.
struct Run {
  Run(sim::Simulator& s, std::size_t objects, const WorkloadParams& p, std::uint64_t seed)
      : sim(s), num_objects(objects), params(p), rng(seed), zipf(objects, p.zipf_skew) {}

  sim::Simulator& sim;
  std::size_t num_objects;
  WorkloadParams params;
  WorkloadReport report;
  util::Rng rng;
  util::ZipfGenerator zipf;
  std::uint64_t salt = 0;
  std::vector<Loop> loops;
  /// Loops with m-operations left to issue or to complete.
  std::size_t live = 0;
};

void Loop::issue() {
  if (remaining == 0) {
    --run->live;
    return;
  }
  --remaining;
  mscript::Program program =
      random_program(run->num_objects, run->params, run->rng, run->zipf, run->salt++);
  const bool is_update = program.is_update();
  sim::Context ctx(run->sim, node);
  replica->invoke(ctx, std::move(program), [this, is_update](const InvocationOutcome& out) {
    const auto latency = static_cast<double>(out.response - out.invoke);
    if (is_update) {
      run->report.update_latency.add(latency);
      ++run->report.updates;
    } else {
      run->report.query_latency.add(latency);
      ++run->report.queries;
    }
    // mocc-lint: allow(sched-hook): harness issue loop, not protocol
    run->sim.schedule_call(run->sim.now() + run->params.think_time, [this] { issue(); });
  });
}

}  // namespace

mscript::Program random_program(std::size_t num_objects, const WorkloadParams& params,
                                util::Rng& rng, util::ZipfGenerator& zipf,
                                std::uint64_t salt) {
  const std::size_t footprint = std::max<std::size_t>(1, params.footprint);
  const auto objects = pick_objects(footprint, num_objects, rng, zipf);

  if (!rng.next_bool(params.update_ratio)) {
    // Query: sum or read_all over the footprint.
    if (rng.next_bool(0.5)) return mscript::lib::make_sum(objects);
    return mscript::lib::make_read_all(objects);
  }

  if (objects.size() >= 2 && rng.next_bool(params.dcas_fraction)) {
    // DCAS with random expectations: both success and failure paths are
    // exercised (the conservative update rule broadcasts either way).
    return mscript::lib::make_dcas(objects[0], objects[1],
                                   rng.next_in(0, 3), rng.next_in(0, 3),
                                   static_cast<mscript::Value>(salt * 4 + 1),
                                   static_cast<mscript::Value>(salt * 4 + 2));
  }
  switch (salt % 3) {
    case 0: {
      std::vector<mscript::Value> values;
      values.reserve(objects.size());
      for (std::size_t i = 0; i < objects.size(); ++i) {
        values.push_back(static_cast<mscript::Value>(salt * 16 + i));
      }
      return mscript::lib::make_m_assign(objects, values);
    }
    case 1:
      if (objects.size() >= 2) {
        return mscript::lib::make_transfer(objects[0], objects[1], rng.next_in(1, 5));
      }
      [[fallthrough]];
    default: {
      std::vector<mscript::Value> deltas;
      deltas.reserve(objects.size());
      for (std::size_t i = 0; i < objects.size(); ++i) {
        deltas.push_back(rng.next_in(1, 9));
      }
      return mscript::lib::make_multi_add(objects, deltas);
    }
  }
}

WorkloadReport run_workload(sim::Simulator& sim, const std::vector<Replica*>& replicas,
                            std::size_t num_objects, const WorkloadParams& params,
                            std::uint64_t seed) {
  MOCC_ASSERT(!replicas.empty());
  auto run = std::make_shared<Run>(sim, num_objects, params, seed);
  run->loops.resize(replicas.size());  // never resized again: closures point in
  for (sim::NodeId node = 0; node < replicas.size(); ++node) {
    Loop* loop = &run->loops[node];
    *loop = Loop{run.get(), replicas[node], node, params.ops_per_process};
    ++run->live;
    // mocc-lint: allow(sched-hook): harness kickoff, not protocol code
    sim.schedule_call(1 + node, [loop] { loop->issue(); });
  }

  sim.run();
  // A stopped run leaves closures that point into `run` in the event
  // queue and in the replicas: the simulator keeps it alive for them.
  if (run->live != 0) sim.retain(run);
  return run->report;
}

}  // namespace mocc::protocols
