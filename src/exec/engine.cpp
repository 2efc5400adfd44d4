#include "exec/engine.hpp"

#include <algorithm>
// mocc-lint: allow(determinism): wall-clock throughput is the point of the
// multicore engine; elapsed_seconds never feeds a golden artifact
#include <chrono>
#include <memory>
#include <memory_resource>
#include <thread>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mocc::exec {

namespace {

/// try_lock attempts per write-set object before the whole m-operation
/// aborts (exec_abort_lock) and retries from scratch. Bounds convoying
/// behind a stalled committer without a deadlock-prone blocking wait.
constexpr std::size_t kLockSpins = 128;

/// One step of a generated m-operation, fixed across retries.
struct SpecOp {
  core::OpType type = core::OpType::kRead;
  core::ObjectId object = 0;
  /// Writes: literal value, or (rmw) 1 + the value this attempt read
  /// from the same object.
  core::Value literal = 0;
  bool rmw_increment = false;
};

struct ReadEntry {
  core::ObjectId object = 0;
  core::Value value = 0;
  std::uint64_t tid = kInitialTid;  ///< writer tid the snapshot observed
};

struct WriteEntry {
  core::ObjectId object = 0;
  core::Value value = 0;
  /// Pre-lock version word, filled at lock time: restored on abort,
  /// and the version validation compares against for read-own-write.
  std::uint64_t locked_from = kInitialTid;
};

/// Everything the workers share. Both counters are seq_cst fetch_adds:
/// the real-time soundness argument (engine.hpp top comment) chains
/// program order with the single total order over these operations, so
/// relaxing either would void resp(b) < inv(a) ⟹ tid(b) < tid(a).
/// mocc-lint's atomics pass checks every site against this table; the
/// relaxed entries cover the pre-spawn reset in run() and the
/// trace-timestamp read in emit_abort(), each individually justified.
/// Each counter has a cache line of its own: every m-operation writes
/// them three times, and every read, lock and validation loads the
/// store's vector header, which would otherwise share their line.
// mocc-atomics: next_tid: rmw=seq_cst store=relaxed
// mocc-atomics: clock: rmw=seq_cst load=relaxed store=relaxed
struct Shared {
  ObjectStore store;
  alignas(kCacheLine) std::atomic<std::uint64_t> next_tid{kInitialTid + 1};
  alignas(kCacheLine) std::atomic<std::uint64_t> clock{0};
};

/// The footprint an m-operation draws: at least one object, at most all.
std::size_t clamped_footprint(const ExecConfig& config) {
  return std::min(std::max<std::size_t>(config.footprint, 1), config.objects);
}

struct WorkerStats {
  std::uint64_t committed = 0;
  std::uint64_t aborted_validation = 0;
  std::uint64_t aborted_lock = 0;
  std::uint64_t abandoned = 0;
};

/// Cache-line aligned, so one worker's counters and log ends never share
/// a line with the next worker's random state.
class alignas(kCacheLine) Worker {
 public:
  /// `log_memory` backs the log and the op buffer. Only this constructor
  /// allocates from it, on the calling thread: the resource is not
  /// thread-safe, and the reservations below keep the workers off it.
  Worker(const ExecConfig& config, Shared& shared, std::uint32_t id,
         obs::TraceSink* sink, std::pmr::memory_resource* log_memory)
      : config_(config),
        shared_(shared),
        id_(id),
        sink_(sink),
        rng_(config.seed * 0x9e3779b97f4a7c15ULL + id + 1),
        zipf_(config.objects, config.zipf_skew),
        log_(log_memory),
        op_buffer_(log_memory) {
    // The log and the op buffer are reserved here, on the calling
    // thread, for the largest m-operation (an rmw logs footprint reads
    // plus footprint writes), so no logged m-operation lands in a worker
    // thread's malloc arena, whose freed blocks stay resident after the
    // run.
    const std::size_t footprint = clamped_footprint(config);
    log_.reserve(config.mops_per_thread);
    op_buffer_.reserve(config.mops_per_thread * 2 * footprint);
  }

  void operator()() {
    // The per-attempt scratch is small and rewritten every m-operation.
    // Reserved here, on the worker's own thread, it lands in that
    // thread's arena, off the lines of every other worker's scratch.
    // The commit path then allocates nothing.
    const std::size_t footprint = clamped_footprint(config_);
    footprint_.reserve(footprint);
    spec_.reserve(2 * footprint);
    ops_.reserve(2 * footprint);
    reads_.reserve(footprint);
    writes_.reserve(footprint);
    for (std::size_t i = 0; i < config_.mops_per_thread; ++i) {
      generate_spec();
      execute_one();
    }
  }

  /// Moves the log and the op buffer its entries view into `result`.
  void hand_over(ExecResult& result) {
    result.logs.push_back(std::move(log_));
    result.op_buffers.push_back(std::move(op_buffer_));
  }
  const WorkerStats& stats() const { return stats_; }

 private:
  core::ObjectId pick_object() {
    if (config_.zipf_skew > 0.0) {
      return static_cast<core::ObjectId>(zipf_.next(rng_));
    }
    return static_cast<core::ObjectId>(rng_.next_below(config_.objects));
  }

  void generate_spec() {
    spec_.clear();
    const std::size_t footprint = clamped_footprint(config_);
    footprint_.clear();
    while (footprint_.size() < footprint) {
      const core::ObjectId x = pick_object();
      if (std::find(footprint_.begin(), footprint_.end(), x) ==
          footprint_.end()) {
        footprint_.push_back(x);
      }
    }
    if (rng_.next_bool(config_.query_ratio)) {
      for (const core::ObjectId x : footprint_) {
        spec_.push_back({core::OpType::kRead, x, 0, false});
      }
      return;
    }
    if (rng_.next_bool(config_.rmw_ratio)) {
      // rmw set: read every object, then write back value + 1. The
      // increments make lost updates *observable*: verify.cpp's replay
      // reproduces the exact final value of every counter-like object.
      for (const core::ObjectId x : footprint_) {
        spec_.push_back({core::OpType::kRead, x, 0, false});
      }
      for (const core::ObjectId x : footprint_) {
        spec_.push_back({core::OpType::kWrite, x, 0, true});
      }
      return;
    }
    // Mixed read/write set: read the first half, blind-write the rest
    // (at least one write — this branch is an update by construction).
    const std::size_t num_reads = footprint_.size() / 2;
    for (std::size_t k = 0; k < footprint_.size(); ++k) {
      if (k < num_reads) {
        spec_.push_back({core::OpType::kRead, footprint_[k], 0, false});
      } else {
        const auto literal = static_cast<core::Value>(rng_.next_u64() >> 16);
        spec_.push_back({core::OpType::kWrite, footprint_[k], literal, false});
      }
    }
  }

  WriteEntry* find_write(core::ObjectId x) {
    for (WriteEntry& w : writes_) {
      if (w.object == x) return &w;
    }
    return nullptr;
  }

  const ReadEntry* find_read(core::ObjectId x) const {
    for (const ReadEntry& r : reads_) {
      if (r.object == x) return &r;
    }
    return nullptr;
  }

  /// Phase 1: run the spec against the store, building the read set,
  /// write set (sorted by object — the canonical lock order), and the
  /// program-order op log.
  void execute_attempt() {
    ops_.clear();
    reads_.clear();
    writes_.clear();
    for (const SpecOp& op : spec_) {
      if (op.type == core::OpType::kRead) {
        if (const WriteEntry* w = find_write(op.object)) {
          ops_.push_back(
              {core::OpType::kRead, op.object, w->value, kOwnWriteTid});
          continue;
        }
        if (const ReadEntry* r = find_read(op.object)) {
          ops_.push_back({core::OpType::kRead, op.object, r->value, r->tid});
          continue;
        }
        const StableRead snapshot = shared_.store.stable_read(op.object);
        reads_.push_back({op.object, snapshot.value, snapshot.tid});
        ops_.push_back(
            {core::OpType::kRead, op.object, snapshot.value, snapshot.tid});
        continue;
      }
      core::Value value = op.literal;
      if (op.rmw_increment) {
        if (const WriteEntry* w = find_write(op.object)) {
          value = w->value + 1;
        } else if (const ReadEntry* r = find_read(op.object)) {
          value = r->value + 1;
        } else {
          MOCC_ASSERT_MSG(false, "rmw write with no preceding read");
        }
      }
      if (WriteEntry* w = find_write(op.object)) {
        w->value = value;
      } else {
        const auto at = std::lower_bound(
            writes_.begin(), writes_.end(), op.object,
            [](const WriteEntry& w, core::ObjectId x) { return w.object < x; });
        writes_.insert(at, {op.object, value, kInitialTid});
      }
      ops_.push_back({core::OpType::kWrite, op.object, value, kInitialTid});
    }
  }

  /// Phase 2 (updates): CAS-acquire the write locks in ascending object
  /// order. On failure releases everything acquired so far.
  bool lock_write_set() {
    for (std::size_t k = 0; k < writes_.size(); ++k) {
      bool locked = false;
      for (std::size_t spin = 0; spin < kLockSpins; ++spin) {
        if (shared_.store.try_lock(writes_[k].object,
                                   writes_[k].locked_from)) {
          locked = true;
          break;
        }
      }
      if (!locked) {
        for (std::size_t j = 0; j < k; ++j) {
          shared_.store.unlock(writes_[j].object, writes_[j].locked_from);
        }
        return false;
      }
    }
    return true;
  }

  /// Phase 4: every read-set entry must still name the writer tid the
  /// snapshot observed. Objects we hold the lock on are compared against
  /// the pre-lock word (the version the lock was acquired over); all
  /// others must be unlocked — a lock here is a concurrent committer
  /// that drew a smaller tid (it locked before we drew ours), so waiting
  /// it out could only confirm the conflict.
  bool validate_read_set() const {
    for (const ReadEntry& r : reads_) {
      const WriteEntry* own = nullptr;
      for (const WriteEntry& w : writes_) {
        if (w.object == r.object) {
          own = &w;
          break;
        }
      }
      if (own != nullptr) {
        if (tid_of(own->locked_from) != r.tid) return false;
        continue;
      }
      const std::uint64_t word = shared_.store.word(r.object);
      if (is_locked(word) || tid_of(word) != r.tid) return false;
    }
    return true;
  }

  void emit_abort(std::uint32_t reason, std::uint32_t attempt) {
    if (sink_ == nullptr) return;
    // mocc-lint: allow(atomics): trace timestamp only; no m-op ordering rides on this read
    const std::uint64_t now = shared_.clock.load(std::memory_order_relaxed);
    sink_->on_event({obs::TraceEventType::kExecAbort, now, id_,
                     /*peer=*/0, reason, attempt, /*arg=*/0});
  }

  void execute_one() {
    const std::uint64_t invoke =
        shared_.clock.fetch_add(1, std::memory_order_seq_cst);
    std::uint32_t attempt = 0;
    for (;;) {
      ++attempt;
      if (config_.max_attempts != 0 && attempt > config_.max_attempts) {
        ++stats_.abandoned;
        return;
      }
      execute_attempt();
      std::uint64_t tid;
      if (writes_.empty()) {
        // Query: no locks; drawing the serialization tid BEFORE
        // validating makes the validated snapshot current as of the
        // draw (any smaller-tid writer either published before the
        // validation or still held its lock through it).
        tid = shared_.next_tid.fetch_add(1, std::memory_order_seq_cst);
        if (!validate_read_set()) {
          ++stats_.aborted_validation;
          emit_abort(1, attempt);
          std::this_thread::yield();
          continue;
        }
      } else {
        if (!lock_write_set()) {
          ++stats_.aborted_lock;
          emit_abort(0, attempt);
          std::this_thread::yield();
          continue;
        }
        tid = shared_.next_tid.fetch_add(1, std::memory_order_seq_cst);
        if (!validate_read_set()) {
          for (const WriteEntry& w : writes_) {
            shared_.store.unlock(w.object, w.locked_from);
          }
          ++stats_.aborted_validation;
          emit_abort(1, attempt);
          std::this_thread::yield();
          continue;
        }
        for (const WriteEntry& w : writes_) {
          shared_.store.write_and_unlock(w.object, w.value, tid);
        }
      }
      const std::uint64_t response =
          shared_.clock.fetch_add(1, std::memory_order_seq_cst);
      ++stats_.committed;
      MOCC_ASSERT_MSG(op_buffer_.size() + ops_.size() <= op_buffer_.capacity(),
                      "exec: op buffer must not reallocate under logged slices");
      const std::size_t first_op = op_buffer_.size();
      op_buffer_.insert(op_buffer_.end(), ops_.begin(), ops_.end());
      log_.push_back({id_, tid, invoke, response, attempt, !writes_.empty(),
                      std::span<LoggedOp>(op_buffer_).subspan(first_op)});
      if (sink_ != nullptr) {
        sink_->on_event({obs::TraceEventType::kExecCommit, response, id_,
                         /*peer=*/0, /*kind=*/0, tid, attempt});
      }
      return;
    }
  }

  const ExecConfig& config_;
  Shared& shared_;
  const std::uint32_t id_;
  obs::TraceSink* const sink_;
  util::Rng rng_;
  util::ZipfGenerator zipf_;
  std::vector<core::ObjectId> footprint_;
  std::vector<SpecOp> spec_;
  std::vector<LoggedOp> ops_;
  std::vector<ReadEntry> reads_;
  std::vector<WriteEntry> writes_;
  std::pmr::vector<CommittedMop> log_;
  std::pmr::vector<LoggedOp> op_buffer_;
  WorkerStats stats_;
};

}  // namespace

std::uint64_t ExecStats::mops_per_sec() const {
  if (elapsed_seconds <= 0.0) return 0;
  return static_cast<std::uint64_t>(static_cast<double>(committed) /
                                    elapsed_seconds);
}

ExecResult run(const ExecConfig& config, obs::TraceSink* sink) {
  MOCC_ASSERT_MSG(config.threads > 0, "exec: need at least one worker");
  MOCC_ASSERT_MSG(config.objects > 0, "exec: need at least one object");
  Shared shared{ObjectStore(config.objects, config.initial_value), {}, {}};
  // mocc-lint: allow-begin(atomics): pre-spawn reset on the creating
  // thread; the std::thread constructors below synchronize-with the
  // workers' first reads
  shared.next_tid.store(kInitialTid + 1, std::memory_order_relaxed);
  shared.clock.store(0, std::memory_order_relaxed);
  // mocc-lint: allow-end(atomics)

  // Every worker's log and op buffer is carved from one block, sized for
  // all of them: one allocation per run, where a log and a buffer per
  // worker made 2 x threads, each of which could grow the heap by a
  // system call. A block too small only adds another block.
  const std::size_t worker_bytes =
      config.mops_per_thread *
      (sizeof(CommittedMop) + 2 * clamped_footprint(config) * sizeof(LoggedOp));
  auto log_memory = std::make_unique<std::pmr::monotonic_buffer_resource>(
      config.threads * (worker_bytes + 2 * alignof(std::max_align_t)));
  std::vector<Worker> workers;
  workers.reserve(config.threads);
  for (std::size_t i = 0; i < config.threads; ++i) {
    workers.emplace_back(config, shared, static_cast<std::uint32_t>(i), sink,
                         log_memory.get());
  }

  // Wall clock is measured only to report throughput; the derived gauge
  // is zeroed in golden smoke records (docs/exec-engine.md).
  // mocc-lint: allow(determinism): wall-clock throughput measurement only
  const auto started = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(config.threads);
    for (Worker& worker : workers) {
      threads.emplace_back([&worker] { worker(); });
    }
    for (std::thread& t : threads) t.join();
  }
  const std::chrono::duration<double> elapsed =
      // mocc-lint: allow(determinism): wall-clock throughput measurement only
      std::chrono::steady_clock::now() - started;

  ExecResult result;
  result.config = config;
  result.stats.elapsed_seconds = elapsed.count();
  result.log_memory = std::move(log_memory);
  result.logs.reserve(config.threads);
  result.op_buffers.reserve(config.threads);
  for (Worker& worker : workers) {
    const WorkerStats& s = worker.stats();
    result.stats.committed += s.committed;
    result.stats.aborted_validation += s.aborted_validation;
    result.stats.aborted_lock += s.aborted_lock;
    result.stats.abandoned += s.abandoned;
    worker.hand_over(result);
  }
  result.final_values.reserve(config.objects);
  for (std::size_t x = 0; x < config.objects; ++x) {
    result.final_values.push_back(
        shared.store.committed_value(static_cast<core::ObjectId>(x)));
  }
  return result;
}

std::vector<const CommittedMop*> merge_logs(const ExecResult& result) {
  // Each log ascends in tid, so repeatedly taking the smallest head is a
  // k-way merge; the lowest log index wins a tie.
  struct Cursor {
    const CommittedMop* next;
    const CommittedMop* end;
  };
  std::vector<Cursor> cursors;
  std::size_t total = 0;
  for (const auto& log : result.logs) {
    total += log.size();
    if (!log.empty()) cursors.push_back({log.data(), log.data() + log.size()});
  }
  std::vector<const CommittedMop*> merged;
  merged.reserve(total);
  while (!cursors.empty()) {
    std::size_t min = 0;
    for (std::size_t k = 1; k < cursors.size(); ++k) {
      if (cursors[k].next->tid < cursors[min].next->tid) min = k;
    }
    merged.push_back(cursors[min].next);
    if (++cursors[min].next == cursors[min].end) cursors.erase(cursors.begin() + min);
  }
  return merged;
}

}  // namespace mocc::exec
