// MScript interpreter.
//
// Execution is purely deterministic given the program and the store's
// responses to READs — the replay property both protocols depend on.
// The VM records every shared-object operation it performs in program
// order; the protocol layer turns that record into the core model's
// m-operation (and the checkers consume it).
#pragma once

#include <cstdint>
#include <vector>

#include "mscript/program.hpp"

namespace mocc::mscript {

/// The store a program executes against. Implementations: a replica's
/// local copy, the m-linearizability query copy, a plain test store.
class StoreView {
 public:
  virtual ~StoreView() = default;
  virtual Value read(ObjectId object) = 0;
  virtual void write(ObjectId object, Value value) = 0;
};

/// One shared-object access performed during execution, in program order.
/// For reads, `value` is the value obtained; for writes, the value stored.
struct AccessRecord {
  bool is_write = false;
  ObjectId object = 0;
  Value value = 0;
};

struct ExecutionResult {
  Value return_value = 0;
  std::vector<AccessRecord> accesses;
  std::size_t steps = 0;

  /// Objects actually read / written (deduplicated, sorted).
  std::vector<ObjectId> objects_read() const;
  std::vector<ObjectId> objects_written() const;

  /// Calls f(x) once per object written, in first-write order, without
  /// allocating (a replica bumps ts[x] once per written object).
  template <typename F>
  void for_each_object_written(F&& f) const {
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      if (!accesses[i].is_write) continue;
      bool first = true;
      for (std::size_t j = 0; j < i && first; ++j) {
        first = !(accesses[j].is_write && accesses[j].object == accesses[i].object);
      }
      if (first) f(accesses[i].object);
    }
  }
};

class Vm {
 public:
  /// Upper bound on interpreted steps; exceeded means a buggy program
  /// (deterministic procedures must terminate) and aborts.
  static constexpr std::size_t kMaxSteps = 1 << 20;

  /// Runs `program` against `store`. The program must validate.
  static ExecutionResult run(const Program& program, StoreView& store);
  /// The same run into `result`, reusing its accesses' capacity.
  static void run(const Program& program, StoreView& store, ExecutionResult& result);
};

/// Trivial in-memory store for tests and single-process use.
class VectorStore final : public StoreView {
 public:
  explicit VectorStore(std::size_t num_objects, Value initial = 0)
      : values_(num_objects, initial) {}

  Value read(ObjectId object) override;
  void write(ObjectId object, Value value) override;

  const std::vector<Value>& values() const { return values_; }
  std::vector<Value>& values() { return values_; }

 private:
  std::vector<Value> values_;
};

}  // namespace mocc::mscript
