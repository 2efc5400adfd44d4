// Shared in-memory object store for the multicore execution engine.
//
// One slot per object: a version word (lock bit + committed writer tid)
// and the committed value. Readers take consistent (value, version)
// snapshots without locking via the seqlock-style double-read below;
// writers CAS the lock bit at commit time (in canonical ascending object
// order — see engine.hpp for the full OCC protocol) and publish the new
// value with a release store of the new version word.
//
// The version a reader observes IS the provenance of the value: version
// words hold the global commit tid of the writing m-operation (tid 0 =
// the paper's imaginary initializing write), so committed read sets name
// their reads-from m-operations directly and the post-run merge can
// rebuild a checkable core::History with no value matching.
//
// This file is the only place that touches the store's atomics; the
// memory-ordering obligations are documented on each member.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "util/assert.hpp"

// src/exec is a *shared-memory* subsystem: worker threads communicate
// through the object store's atomics only, never through sim::Message
// traffic, so it deliberately has NO entry in sim::wire::kKindRanges.
// Any exec code that grew a Simulator::send call would have no kind
// range to draw from: raw integer kinds at send sites are rejected by
// mocc-lint's wire-kind check, and out-of-registry kinds abort in debug
// builds at Simulator::send itself (MOCC_DEBUG_ASSERT(is_registered)).
// The static_assert pins the "no range" half of that contract.
#include "sim/wire_kinds.hpp"
static_assert(!mocc::sim::wire::has_component("exec"),
              "src/exec must stay wire-free: it has no reserved kind range, "
              "so any Simulator::send from this subsystem is rejected "
              "(mocc-lint wire-kind + debug is_registered assert)");

namespace mocc::exec {

/// The cache-line size the engine pads to: each store slot, each shared
/// counter and each worker gets lines of its own, so one core's writes
/// never invalidate data another core is using.
inline constexpr std::size_t kCacheLine = 64;

/// Commit tid of the initializing write every object starts with.
inline constexpr std::uint64_t kInitialTid = 0;

/// Version-word layout: bit 63 is the commit lock, bits [62:0] hold the
/// commit tid of the last writer.
inline constexpr std::uint64_t kLockBit = std::uint64_t{1} << 63;

constexpr bool is_locked(std::uint64_t word) { return (word & kLockBit) != 0; }
constexpr std::uint64_t tid_of(std::uint64_t word) { return word & ~kLockBit; }

/// A consistent (value, committed-writer-tid) observation of one object.
struct StableRead {
  core::Value value = 0;
  std::uint64_t tid = kInitialTid;
};

class ObjectStore {
 public:
  /// All objects start at `initial_value` with version kInitialTid.
  explicit ObjectStore(std::size_t num_objects, core::Value initial_value = 0);

  std::size_t size() const { return slots_.size(); }

  /// Seqlock-style consistent snapshot: load word (acquire), load value
  /// (acquire), re-load word; retry while the word is locked or changed
  /// between the loads. The writer's value store is a release store, so
  /// a reader that observed writer w's value and still sees the old
  /// version word would have synchronized with w's lock acquisition and
  /// re-read a locked/advanced word — the double-read cannot pair a new
  /// value with an old version.
  StableRead stable_read(core::ObjectId x) const;

  /// Commit-side primitives (engine.cpp). try_lock CASes the lock bit on
  /// and reports the pre-lock word through `observed` (both on success —
  /// the version the lock was acquired over — and on failure).
  bool try_lock(core::ObjectId x, std::uint64_t& observed);
  /// Publishes `value` then releases the lock by storing version word
  /// `tid` (release; tid < kLockBit so the lock bit clears).
  void write_and_unlock(core::ObjectId x, core::Value value, std::uint64_t tid);
  /// Releases the lock without writing (validation-failure path),
  /// restoring the pre-lock word.
  void unlock(core::ObjectId x, std::uint64_t restore_word);

  /// Raw version word (acquire); validation compares these against the
  /// read set.
  std::uint64_t word(core::ObjectId x) const;

  /// Post-run, single-threaded: the committed value of x (used by tests
  /// and by the final-state cross-check in verify.cpp).
  core::Value committed_value(core::ObjectId x) const;

 private:
  // Publication discipline, machine-checked by mocc-lint's atomics pass
  // (docs/static-analysis.md, "Atomics publication discipline"): every
  // access in src/exec must spell one of the orders declared here, and
  // each relaxed site carries an inline justified allow. word is the
  // seqlock/OCC version word — acquire reads pair with the release
  // publication stores, the commit lock is taken with an acq_rel CAS.
  // value rides the same release/acquire edge (store-before-word inside
  // write_and_unlock).
  // mocc-atomics: word: load=acquire,relaxed store=release,relaxed cas=acq_rel/acquire
  // mocc-atomics: value: load=acquire store=release,relaxed
  struct Slot {
    std::atomic<std::uint64_t> word;
    std::atomic<core::Value> value;
    // Version words and values are false-sharing-prone under contention;
    // pad each slot to its own cache line.
    char pad[kCacheLine - sizeof(std::atomic<std::uint64_t>) -
             sizeof(std::atomic<core::Value>)];
  };
  static_assert(sizeof(Slot) == kCacheLine, "one slot per cache line");

  std::vector<Slot> slots_;
};

}  // namespace mocc::exec
