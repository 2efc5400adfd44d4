#include "core/history.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/assert.hpp"

namespace mocc::core {

History::History(std::size_t num_processes, std::size_t num_objects)
    : num_processes_(num_processes),
      num_objects_(num_objects),
      by_process_(num_processes) {}

MOpId History::add(MOperation mop) {
  MOCC_ASSERT(mop.process() < num_processes_);
  // Forward reads-from references are allowed (m-operations can mutually
  // read from each other across processes); relation builders bound-check
  // the ids when the history is consumed.
  for (const Operation& op : mop.ops()) {
    MOCC_ASSERT(op.object < num_objects_);
  }
  auto& sequence = by_process_[mop.process()];
  if (!sequence.empty()) {
    const MOperation& prev = mops_[sequence.back()];
    MOCC_ASSERT_MSG(prev.response() <= mop.invoke(),
                    "process subhistory not sequential (overlapping m-operations)");
  }
  const auto id = static_cast<MOpId>(mops_.size());
  sequence.push_back(id);
  mops_.push_back(std::move(mop));
  return id;
}

const MOperation& History::mop(MOpId id) const {
  MOCC_ASSERT(id < mops_.size());
  return mops_[id];
}

const std::vector<MOpId>& History::process_ops(ProcessId process) const {
  MOCC_ASSERT(process < num_processes_);
  return by_process_[process];
}

bool History::well_formed(std::string* why) const {
  for (ProcessId p = 0; p < num_processes_; ++p) {
    const auto& sequence = by_process_[p];
    for (std::size_t i = 1; i < sequence.size(); ++i) {
      const MOperation& prev = mops_[sequence[i - 1]];
      const MOperation& next = mops_[sequence[i]];
      if (prev.response() > next.invoke()) {
        if (why != nullptr) {
          std::ostringstream out;
          out << "process P" << p << ": m-operation " << sequence[i - 1]
              << " responds at " << prev.response() << " after m-operation "
              << sequence[i] << " is invoked at " << next.invoke();
          *why = out.str();
        }
        return false;
      }
    }
  }
  return true;
}

bool History::value_coherent(std::string* why, Value initial_value) const {
  // Formats the message only for the read that fails.
  const auto complain = [why](MOpId id, const Operation& read, const auto&... tail) {
    if (why != nullptr) {
      std::ostringstream out;
      out << "m" << id << " reads x" << read.object << " = " << read.value << " from ";
      (out << ... << tail);
      *why = out.str();
    }
    return false;
  };
  for (MOpId id = 0; id < mops_.size(); ++id) {
    for (const Operation& read : mops_[id].external_reads()) {
      if (read.reads_from == kInitialMOp) {
        if (read.value != initial_value) {
          return complain(id, read, "the initial write, whose value is ", initial_value);
        }
        continue;
      }
      if (read.reads_from >= mops_.size()) {
        return complain(id, read, "m", read.reads_from, ", which does not exist");
      }
      const MOperation& writer = mops_[read.reads_from];
      if (!writer.writes(read.object)) {
        return complain(id, read, "m", read.reads_from, ", which never writes x",
                        read.object);
      }
      const Value stored = writer.final_write_value(read.object);
      if (stored != read.value) {
        return complain(id, read, "m", read.reads_from, ", whose final write stores ", stored);
      }
    }
  }
  return true;
}

std::vector<ObjectId> History::rfobjects(MOpId alpha, MOpId beta) const {
  const MOperation& a = mop(alpha);
  std::vector<ObjectId> out;
  for (const Operation& read : a.external_reads()) {
    if (read.reads_from == beta) out.push_back(read.object);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool History::reads_from(MOpId beta, MOpId alpha) const {
  if (beta == alpha) return false;
  for (const Operation& read : mop(alpha).external_reads()) {
    if (read.reads_from == beta) return true;
  }
  return false;
}

bool History::conflict(MOpId a, MOpId b) const {
  if (a == b) return false;
  const MOperation& x = mop(a);
  const MOperation& y = mop(b);
  // (objects(a) ∩ wobjects(b)) ∪ (objects(b) ∩ wobjects(a)) ≠ ∅
  for (ObjectId obj : y.wobjects()) {
    if (x.touches(obj)) return true;
  }
  for (ObjectId obj : x.wobjects()) {
    if (y.touches(obj)) return true;
  }
  return false;
}

bool History::interfere(MOpId alpha, MOpId beta, MOpId gamma) const {
  if (alpha == beta || beta == gamma || alpha == gamma) return false;
  const MOperation& g = mop(gamma);
  for (const Operation& read : mop(alpha).external_reads()) {
    if (read.reads_from == beta && g.writes(read.object)) return true;
  }
  return false;
}

bool History::equivalent(const History& other) const {
  if (num_processes_ != other.num_processes_ || size() != other.size()) return false;
  // Build the correspondence between m-op ids: position-in-process-order.
  // Histories are equivalent iff each process issues the same sequence of
  // m-operations (same operations, same values) and corresponding reads
  // read from corresponding writers.
  std::vector<MOpId> map_to_other(size(), 0);
  for (ProcessId p = 0; p < num_processes_; ++p) {
    const auto& mine = by_process_[p];
    const auto& theirs = other.by_process_[p];
    if (mine.size() != theirs.size()) return false;
    for (std::size_t i = 0; i < mine.size(); ++i) map_to_other[mine[i]] = theirs[i];
  }
  for (ProcessId p = 0; p < num_processes_; ++p) {
    const auto& mine = by_process_[p];
    const auto& theirs = other.by_process_[p];
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const MOperation& a = mops_[mine[i]];
      const MOperation& b = other.mops_[theirs[i]];
      if (a.ops().size() != b.ops().size()) return false;
      for (std::size_t k = 0; k < a.ops().size(); ++k) {
        const Operation& x = a.ops()[k];
        const Operation& y = b.ops()[k];
        if (x.type != y.type || x.object != y.object || x.value != y.value) return false;
        if (x.type == OpType::kRead) {
          const MOpId mapped =
              x.reads_from == kInitialMOp ? kInitialMOp : map_to_other[x.reads_from];
          if (mapped != y.reads_from) return false;
        }
      }
    }
  }
  return true;
}

bool History::derive_reads_from(Value initial_value) {
  // (object, value) -> writer id; must be unique.
  std::map<std::pair<ObjectId, Value>, MOpId> writer_of;
  for (MOpId id = 0; id < mops_.size(); ++id) {
    for (const Operation& op : mops_[id].final_writes()) {
      auto [it, inserted] = writer_of.insert({{op.object, op.value}, id});
      if (!inserted) return false;  // ambiguous value
    }
  }
  for (MOpId id = 0; id < mops_.size(); ++id) {
    MOperation& m = mops_[id];
    // Rebuild the m-operation with reads_from links patched in.
    std::vector<Operation> ops = m.ops();
    std::map<ObjectId, Value> own_writes;
    for (Operation& op : ops) {
      if (op.type == OpType::kWrite) {
        own_writes[op.object] = op.value;
        continue;
      }
      if (auto it = own_writes.find(op.object); it != own_writes.end()) {
        // Internal read: must match own preceding write; no external link.
        if (op.value != it->second) return false;
        op.reads_from = id;
        continue;
      }
      if (op.value == initial_value &&
          writer_of.find({op.object, op.value}) == writer_of.end()) {
        op.reads_from = kInitialMOp;
        continue;
      }
      const auto it = writer_of.find({op.object, op.value});
      if (it == writer_of.end()) return false;  // reads a value nobody wrote
      if (it->second == id) return false;       // would read own overwritten value
      op.reads_from = it->second;
    }
    mops_[id] = MOperation(m.process(), std::move(ops), m.invoke(), m.response(),
                           m.label());
  }
  return true;
}

std::string History::to_string() const {
  std::ostringstream out;
  out << "history: " << size() << " m-operations, " << num_processes_
      << " processes, " << num_objects_ << " objects\n";
  for (MOpId id = 0; id < mops_.size(); ++id) {
    out << "  m" << id << ": " << mops_[id].to_string() << "\n";
  }
  return out.str();
}

}  // namespace mocc::core
