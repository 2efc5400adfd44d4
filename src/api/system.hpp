// mocc public API: a replicated multi-object store with a selectable
// consistency protocol, running on the deterministic simulator.
//
// Typical use (see examples/quickstart.cpp):
//
//   mocc::api::SystemConfig config;
//   config.num_processes = 4;
//   config.num_objects = 8;
//   config.protocol = "mlin";                       // m-linearizability
//   mocc::api::System system(config);
//
//   system.submit(0, 1, mocc::mscript::lib::make_dcas(0, 1, 0, 0, 7, 8),
//                 [](const mocc::protocols::InvocationOutcome& out) { ... });
//   system.run();
//
//   auto history = system.history();                // checkable record
//   auto audit = system.audit();                    // P5.x oracles
//   auto fast = system.check_fast(
//       mocc::core::Condition::kMLinearizability);  // Theorem 7
//
// Protocols: "mseq" (Figure 4), "mlin" (Figure 6), "mlin-narrow"
// (Figure 6 + §5.2's narrow query replies), "mlin-bcastq" (Figure 4 with
// queries broadcast too), "locking" (conservative 2PL baseline),
// "aggregate" (single-lock strawman from §1).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/admissibility.hpp"
#include "core/audit.hpp"
#include "core/fast_check.hpp"
#include "core/history.hpp"
#include "fault/fault.hpp"
#include "fault/reliable_link.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "protocols/recorder.hpp"
#include "protocols/replica.hpp"
#include "protocols/workload.hpp"
#include "sim/simulator.hpp"

namespace mocc::api {

struct SystemConfig {
  std::size_t num_processes = 3;
  std::size_t num_objects = 8;
  /// "mseq" | "mlin" | "mlin-narrow" | "mlin-bcastq" | "locking" |
  /// "aggregate"
  std::string protocol = "mlin";
  /// "sequencer" | "isis" (ignored by locking/aggregate)
  std::string broadcast = "sequencer";
  /// "constant" | "lan" | "wan" | "uniform" | "reorder" | "exponential"
  std::string delay = "lan";
  std::uint64_t seed = 42;
  /// Fault injection (src/fault): attached to the simulator only when
  /// faults.enabled() — a default plan costs nothing and leaves the
  /// execution byte-identical to a fault-free build.
  fault::FaultPlanConfig faults;
  /// Route every replica (and abcast) send through an ack/retransmit
  /// reliable link. Off by default: the paper assumes reliable channels.
  bool reliable_link = false;
  fault::ReliableLink::Options link;
  /// Hot-path batching & pipelining (docs/batching.md). Every knob
  /// defaults to "off" (batch of one), which keeps the wire behavior —
  /// and therefore every golden trace — byte-identical to an unbatched
  /// build. Order guarantees (per-sender FIFO, agreed total order) hold
  /// at any setting; batching trades latency for message count.
  struct BatchingConfig {
    /// Sequencer group-commit: assign a contiguous position block to up
    /// to this many pending updates per round (1 = off). Requires
    /// broadcast == "sequencer" when > 1.
    std::size_t abcast_batch_max = 1;
    /// Virtual-time age bound before a partial sequencer batch flushes.
    sim::SimTime abcast_batch_age = 8;
    /// Link-level coalescing: per-destination queue flushed at this many
    /// items (1 = off; needs reliable_link).
    std::size_t link_batch_items = 1;
    /// Byte-based flush threshold for the coalescing queue (0 = none).
    std::size_t link_batch_bytes = 0;
    /// Virtual-time age bound before a partial coalescing queue flushes.
    sim::SimTime link_batch_age = 4;
    /// mlin query fan-out batching: serialize queries into shared rounds
    /// (applies to the mlin / mlin-narrow protocols).
    bool batch_queries = false;

    bool any_enabled() const {
      return abcast_batch_max > 1 || link_batch_items > 1 || batch_queries;
    }
  };
  BatchingConfig batching;
  /// Deliberate protocol mutation, for validating that the mocc-check
  /// explorer (src/check) actually catches broken protocols. Empty — the
  /// default — is the correct protocol. Accepted values:
  ///   "seq-swap"      sequencer fans out the first two positions with
  ///                   swapped labels (requires broadcast="sequencer")
  ///   "skip-delivery" node 1 silently skips applying its first foreign
  ///                   abcast delivery (mseq / mlin variants)
  ///   "early-release" 2PL releases locks in a separate commit message
  ///                   sent before the writes (locking/aggregate)
  /// Never set outside tests and mocc-check selftests.
  std::string mutation;
  /// Deterministic backlog sampling: once per crossed multiple of this
  /// virtual-time interval, the system samples the simulator's event
  /// queue depth and the total reliable-link retransmit-buffer bytes —
  /// into the sim_event_queue_depth / link_retransmit_buffer_bytes
  /// gauges (set_metrics_registry) and a backlog_sample trace event.
  /// 0 (the default) disables sampling.
  sim::SimTime backlog_sample_interval = 0;
};

/// The consistency condition `protocol` guarantees: m-sequential
/// consistency for "mseq", m-linearizability for every other protocol.
core::Condition claimed_condition(const std::string& protocol);

class System {
 public:
  explicit System(const SystemConfig& config);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  const SystemConfig& config() const { return config_; }

  /// Enqueues an m-operation at `process`, invoked at virtual time `at`
  /// (or when the process is free, whichever is later — processes are
  /// sequential). The callback fires at response time.
  void submit(core::ProcessId process, sim::SimTime at, mscript::Program program,
              std::function<void(const protocols::InvocationOutcome&)> on_response = {});

  /// Runs the simulation until quiescent (or until `max_time` when
  /// non-zero); returns final virtual time.
  sim::SimTime run(sim::SimTime max_time = 0);

  /// Current virtual time (valid inside callbacks and between runs).
  sim::SimTime now() const;

  /// Closed-loop workload convenience (drives, runs, reports).
  protocols::WorkloadReport run_workload(const protocols::WorkloadParams& params);

  // The verdict methods below share one History per completed run: the
  // first of them builds it from the recorder, and they rebuild it only
  // once the recorder has begun or completed m-operations since (a run
  // continued after a verdict). check_fast memoizes its result per
  // condition, and audit() reuses the claimed condition's. They fill
  // that cache even though they are const: a System is confined to one
  // thread.

  /// The recorded execution (valid after run() has drained everything;
  /// aborts on outstanding invocations). A copy of the shared History.
  core::History history() const;

  /// True for the §5 protocols (mseq / mlin variants) whose timestamped
  /// traces the P5.x audit understands.
  bool supports_audit() const;
  /// The P5.x audit (core::sparse_audit) of the recorded execution, over
  /// the ~>H− of claimed_condition(protocol): Figure 4's for "mseq",
  /// Figure 6's otherwise. Runs no second sparse pass when
  /// check_fast(claimed_condition(protocol)) already ran on this run.
  /// Requires supports_audit().
  core::AuditReport audit() const;

  /// Theorem-7 polynomial check of the recorded history against a
  /// condition (core::sparse_fast_check, with the recorded ~ww as the
  /// synchronization order), memoized per condition. Requires
  /// supports_audit().
  core::FastCheckResult check_fast(core::Condition condition) const;

  /// Exact (worst-case exponential) check; works for any protocol.
  core::AdmissibilityResult check_exact(
      core::Condition condition, const core::AdmissibilityOptions& options = {}) const;

  const sim::TrafficStats& traffic() const;
  const protocols::ExecutionRecorder& recorder() const { return *recorder_; }

  /// The attached fault plan, or null when config.faults was disabled.
  const fault::FaultPlan* fault_plan() const { return fault_plan_.get(); }
  /// Aggregate reliable-link counters across every node (all zero when
  /// config.reliable_link is off).
  const fault::LinkStats& link_stats() const { return link_stats_; }
  /// Retry-budget exhaustions gathered from every node's link.
  std::vector<fault::FailedSend> link_failures() const;

  /// Attaches an observability trace sink (obs/trace.hpp) to the
  /// underlying simulator. Not owned — it must outlive the system or be
  /// detached with nullptr. Message, m-operation, lock, and abcast
  /// events of subsequent runs flow into it; with no sink attached the
  /// instrumentation costs one pointer test per event site.
  void set_trace_sink(obs::TraceSink* sink);

  /// Attaches a mocc-check schedule controller (sim/simulator.hpp) to the
  /// underlying simulator. Not owned; must be attached before the first
  /// run(). Requires faults off.
  void set_schedule_controller(sim::ScheduleController* controller);

  /// The most recent backlog sample (all zero until the first probe
  /// fires; see SystemConfig::backlog_sample_interval).
  struct BacklogSample {
    sim::SimTime time = 0;
    std::uint64_t queue_depth = 0;
    std::uint64_t link_buffer_bytes = 0;
  };
  const BacklogSample& backlog() const { return backlog_; }

  /// Metrics registry the backlog probe writes its gauges into (not
  /// owned; null — the default — skips gauge updates).
  void set_metrics_registry(obs::Registry* registry) { metrics_ = registry; }

  /// Streams one time-series sample of the metrics registry per backlog
  /// probe firing (deterministic virtual-time cadence — requires
  /// config.backlog_sample_interval != 0 and a metrics registry). Not
  /// owned; null — the default — disables sampling.
  void set_timeseries(obs::TimeSeriesWriter* writer) { timeseries_ = writer; }

  /// Asks the simulator to stop before its next event; the current
  /// run() returns early and stays stopped (see Simulator::request_stop).
  /// A streaming auditor's violation callback uses this to abort a run
  /// the moment a window fails.
  void request_stop();

 private:
  SystemConfig config_;
  std::unique_ptr<protocols::ExecutionRecorder> recorder_;
  std::unique_ptr<fault::FaultPlan> fault_plan_;  // null unless enabled
  fault::LinkStats link_stats_;  // shared sink of every replica's link
  std::unique_ptr<sim::Simulator> sim_;
  std::vector<protocols::Replica*> replicas_;  // owned by sim_
  struct SubmitQueue;
  std::vector<std::shared_ptr<SubmitQueue>> queues_;
  BacklogSample backlog_;
  obs::Registry* metrics_ = nullptr;
  obs::TimeSeriesWriter* timeseries_ = nullptr;

  /// What the verdict methods share, for the recorder state it was built
  /// from: the recorder's (size, completed) counts.
  struct Verdict {
    std::size_t records = 0;
    std::size_t completed = 0;
    std::optional<core::History> history;
    core::WwRanks ww_ranks;
    /// check_fast's results, indexed by core::Condition.
    std::array<std::optional<core::FastCheckResult>, 3> fast;
  };
  /// The current Verdict, rebuilt when the recorder moved on.
  Verdict& verdict() const;
  mutable Verdict verdict_;
};

}  // namespace mocc::api
