#include "api/system.hpp"

#include <algorithm>
#include <deque>

#include "abcast/abcast.hpp"
#include "abcast/sequencer.hpp"
#include "protocols/locking_replica.hpp"
#include "protocols/mlin_replica.hpp"
#include "protocols/mseq_replica.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mocc::api {

core::Condition claimed_condition(const std::string& protocol) {
  return protocol == "mseq" ? core::Condition::kMSequentialConsistency
                            : core::Condition::kMLinearizability;
}

struct System::SubmitQueue {
  struct Item {
    sim::SimTime at = 0;
    mscript::Program program;
    std::function<void(const protocols::InvocationOutcome&)> on_response;
  };
  std::deque<Item> items;
  bool busy = false;
  /// Earliest time the next invocation may start: one tick after the
  /// previous response (local step time). Enforced at pop so that
  /// however many pump closures are in flight, spacing holds.
  sim::SimTime not_before = 0;
};

System::System(const SystemConfig& config) : config_(config) {
  MOCC_ASSERT(config.num_processes >= 1);
  MOCC_ASSERT(config.num_objects >= 1);
  util::Logger::init_from_env();  // MOCC_LOG=debug traces the simulation

  recorder_ = std::make_unique<protocols::ExecutionRecorder>(config.num_processes,
                                                             config.num_objects);
  sim_ = std::make_unique<sim::Simulator>(sim::make_delay_model(config.delay),
                                          config.seed);
  if (config.faults.enabled()) {
    fault_plan_ = std::make_unique<fault::FaultPlan>(config.faults);
    sim_->set_fault_injector(fault_plan_.get());
  }

  const bool mutate_seq_swap = config.mutation == "seq-swap";
  const bool mutate_skip_delivery = config.mutation == "skip-delivery";
  const bool mutate_early_release = config.mutation == "early-release";
  MOCC_ASSERT_MSG(config.mutation.empty() || mutate_seq_swap ||
                      mutate_skip_delivery || mutate_early_release,
                  "unknown mutation (seq-swap|skip-delivery|early-release)");
  MOCC_ASSERT_MSG(!mutate_seq_swap || config.broadcast == "sequencer",
                  "seq-swap mutates the sequencer broadcast");

  const bool is_mseq = config.protocol == "mseq";
  const bool is_mlin_bcastq = config.protocol == "mlin-bcastq";
  const bool is_mlin = config.protocol == "mlin";
  const bool is_mlin_narrow = config.protocol == "mlin-narrow";
  const bool is_locking = config.protocol == "locking";
  const bool is_aggregate = config.protocol == "aggregate";
  MOCC_ASSERT_MSG(is_mseq || is_mlin_bcastq || is_mlin || is_mlin_narrow ||
                      is_locking || is_aggregate,
                  "unknown protocol (mseq|mlin|mlin-narrow|mlin-bcastq|locking|"
                  "aggregate)");

  MOCC_ASSERT_MSG(config.batching.abcast_batch_max <= 1 ||
                      config.broadcast == "sequencer",
                  "abcast batching is a sequencer group-commit — requires "
                  "broadcast=\"sequencer\"");
  MOCC_ASSERT_MSG(config.batching.abcast_batch_max <= 1 || !mutate_seq_swap,
                  "seq-swap mutation targets the unbatched fan-out path");
  MOCC_ASSERT_MSG(config.batching.link_batch_items <= 1 || config.reliable_link,
                  "link coalescing lives in the reliable link — enable it");

  const auto make_abcast = [&]() -> std::unique_ptr<abcast::AtomicBroadcast> {
    if (mutate_seq_swap) {
      abcast::SequencerAbcast::Options options;
      options.mutate_swap_first_two = true;
      return std::make_unique<abcast::SequencerAbcast>(options);
    }
    if (config.batching.abcast_batch_max > 1) {
      abcast::SequencerAbcast::Options options;
      options.batch_max = config.batching.abcast_batch_max;
      options.batch_age = config.batching.abcast_batch_age;
      return std::make_unique<abcast::SequencerAbcast>(options);
    }
    return abcast::make_abcast_factory(config.broadcast)();
  };

  for (std::size_t p = 0; p < config.num_processes; ++p) {
    std::unique_ptr<protocols::Replica> replica;
    if (is_mseq || is_mlin_bcastq) {
      protocols::MSeqReplica::Options options;
      options.broadcast_queries = is_mlin_bcastq;
      options.mutate_skip_first_foreign = mutate_skip_delivery && p == 1;
      replica = std::make_unique<protocols::MSeqReplica>(
          config.num_objects, make_abcast(), *recorder_, options);
    } else if (is_mlin || is_mlin_narrow) {
      protocols::MLinReplica::Options options;
      options.narrow_replies = is_mlin_narrow;
      options.batch_queries = config.batching.batch_queries;
      options.mutate_skip_first_foreign = mutate_skip_delivery && p == 1;
      options.peers_skip_delivery = mutate_skip_delivery;
      replica = std::make_unique<protocols::MLinReplica>(
          config.num_objects, make_abcast(), *recorder_, options);
    } else {
      protocols::LockingReplica::Options options;
      options.aggregate = is_aggregate;
      options.mutate_early_release = mutate_early_release;
      replica = std::make_unique<protocols::LockingReplica>(
          config.num_objects, config.num_processes, *recorder_, options);
    }
    if (config.reliable_link) {
      fault::ReliableLink::Options link_options = config.link;
      link_options.coalesce_max_items = config.batching.link_batch_items;
      link_options.coalesce_max_bytes = config.batching.link_batch_bytes;
      link_options.coalesce_max_age = config.batching.link_batch_age;
      auto link = std::make_unique<fault::ReliableLink>(link_options);
      link->set_shared_stats(&link_stats_);
      replica->set_reliable_link(std::move(link));
    }
    replicas_.push_back(replica.get());
    sim_->add_node(std::move(replica));
  }

  queues_.resize(config.num_processes);
  for (auto& queue : queues_) queue = std::make_shared<SubmitQueue>();

  if (config.backlog_sample_interval != 0) {
    sim_->set_backlog_probe(config.backlog_sample_interval, [this](sim::SimTime at) {
      backlog_.time = at;
      backlog_.queue_depth = sim_->queue_depth();
      std::uint64_t link_bytes = 0;
      for (const protocols::Replica* replica : replicas_) {
        if (const fault::ReliableLink* link = replica->reliable_link()) {
          link_bytes += link->buffer_bytes();
        }
      }
      backlog_.link_buffer_bytes = link_bytes;
      if (metrics_ != nullptr) {
        metrics_->gauge("sim_event_queue_depth")
            .set(static_cast<double>(backlog_.queue_depth));
        metrics_->gauge("link_retransmit_buffer_bytes")
            .set(static_cast<double>(link_bytes));
      }
      if (auto* sink = sim_->trace_sink()) {
        sink->on_event({obs::TraceEventType::kBacklogSample, at, 0, 0, 0,
                        backlog_.queue_depth, link_bytes});
      }
      if (timeseries_ != nullptr && metrics_ != nullptr) {
        timeseries_->sample(*metrics_, at);
      }
    });
  }
}

System::~System() = default;

void System::submit(core::ProcessId process, sim::SimTime at, mscript::Program program,
                    std::function<void(const protocols::InvocationOutcome&)> on_response) {
  MOCC_ASSERT(process < config_.num_processes);
  auto queue = queues_[process];
  queue->items.push_back(SubmitQueue::Item{at, std::move(program),
                                           std::move(on_response)});

  // Pump closure: issues the head item once the process is idle and the
  // item's requested time has arrived. The stored function refers to
  // itself only through a weak_ptr — capturing `pump` directly would form
  // a shared_ptr cycle and leak every pending closure (LeakSanitizer
  // finding); strong references live solely in scheduled events and the
  // replica's in-flight callback, so the chain frees once it drains.
  auto pump = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_pump = pump;
  protocols::Replica* replica = replicas_[process];
  sim::Simulator* simulator = sim_.get();
  *pump = [queue, weak_pump, replica, simulator, process]() {
    auto self = weak_pump.lock();
    MOCC_ASSERT_MSG(self != nullptr, "pump ran without a live self-reference");
    if (queue->busy || queue->items.empty()) return;
    const sim::SimTime start_at = std::max(queue->items.front().at, queue->not_before);
    if (start_at > simulator->now()) {
      simulator->schedule_call(start_at, [self] { (*self)(); });
      return;
    }
    SubmitQueue::Item item = std::move(queue->items.front());
    queue->items.pop_front();
    queue->busy = true;
    sim::Context ctx(*simulator, static_cast<sim::NodeId>(process));
    auto callback = std::move(item.on_response);
    replica->invoke(ctx, std::move(item.program),
                    [queue, self, simulator, callback](
                        const protocols::InvocationOutcome& outcome) {
                      queue->busy = false;
                      // ≥1 tick of local step time before the process's
                      // next invocation: keeps retry loops from spinning
                      // at a frozen virtual instant (the sequencer's own
                      // broadcasts complete in zero network time).
                      queue->not_before = simulator->now() + 1;
                      if (callback) callback(outcome);
                      simulator->schedule_call(simulator->now() + 1,
                                               [self] { (*self)(); });
                    });
  };
  sim_->schedule_call(std::max(at, sim_->now() + 1), [pump] { (*pump)(); });
}

sim::SimTime System::run(sim::SimTime max_time) { return sim_->run(max_time); }

void System::request_stop() { sim_->request_stop(); }

sim::SimTime System::now() const { return sim_->now(); }

protocols::WorkloadReport System::run_workload(const protocols::WorkloadParams& params) {
  return protocols::run_workload(*sim_, replicas_, config_.num_objects, params,
                                 config_.seed + 1);
}

System::Verdict& System::verdict() const {
  const std::size_t records = recorder_->size();
  const std::size_t completed = recorder_->completed();
  if (!verdict_.history || verdict_.records != records || verdict_.completed != completed) {
    // build_history aborts while invocations are outstanding.
    verdict_ = Verdict{records, completed, recorder_->build_history(), recorder_->ww_ranks(),
                       {}};
  }
  return verdict_;
}

core::History System::history() const { return *verdict().history; }

bool System::supports_audit() const {
  return config_.protocol == "mseq" || config_.protocol == "mlin" ||
         config_.protocol == "mlin-narrow" || config_.protocol == "mlin-bcastq";
}

core::AuditReport System::audit() const {
  MOCC_ASSERT_MSG(supports_audit(), "audit requires a §5 protocol (mseq/mlin)");
  const Verdict& v = verdict();
  const core::Condition claimed = claimed_condition(config_.protocol);
  const std::optional<core::FastCheckResult>& fast = v.fast[static_cast<std::size_t>(claimed)];
  return core::sparse_audit(*v.history, claimed, v.ww_ranks, recorder_->timestamps(),
                            fast ? &*fast : nullptr);
}

core::FastCheckResult System::check_fast(core::Condition condition) const {
  MOCC_ASSERT_MSG(supports_audit(),
                  "fast check needs the recorded ~ww of a §5 protocol");
  Verdict& v = verdict();
  std::optional<core::FastCheckResult>& fast = v.fast[static_cast<std::size_t>(condition)];
  if (!fast) fast = core::sparse_fast_check(*v.history, condition, v.ww_ranks);
  return *fast;
}

core::AdmissibilityResult System::check_exact(
    core::Condition condition, const core::AdmissibilityOptions& options) const {
  return core::check_condition(*verdict().history, condition, options);
}

const sim::TrafficStats& System::traffic() const { return sim_->traffic(); }

std::vector<fault::FailedSend> System::link_failures() const {
  std::vector<fault::FailedSend> failures;
  for (const protocols::Replica* replica : replicas_) {
    if (const fault::ReliableLink* link = replica->reliable_link()) {
      failures.insert(failures.end(), link->failed().begin(), link->failed().end());
    }
  }
  return failures;
}

void System::set_trace_sink(obs::TraceSink* sink) { sim_->set_trace_sink(sink); }

void System::set_schedule_controller(sim::ScheduleController* controller) {
  sim_->set_schedule_controller(controller);
}

}  // namespace mocc::api
