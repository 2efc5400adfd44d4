#include "core/moperation.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "util/assert.hpp"

namespace mocc::core {

MOperation::MOperation(ProcessId process, std::vector<Operation> ops, Time invoke,
                       Time response, std::string label)
    : process_(process),
      ops_(std::move(ops)),
      invoke_(invoke),
      response_(response),
      label_(std::move(label)) {
  MOCC_ASSERT_MSG(invoke_ <= response_, "m-operation responds before it is invoked");

  std::set<ObjectId> all;
  std::set<ObjectId> read_set;
  std::set<ObjectId> write_set;
  std::set<ObjectId> written_so_far;
  std::map<ObjectId, std::size_t> last_write_pos;

  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const Operation& op = ops_[i];
    all.insert(op.object);
    if (op.type == OpType::kRead) {
      read_set.insert(op.object);
      // A read preceded by an own write to the same object is internal:
      // it must return the own value and imposes no cross-m-op constraint.
      if (written_so_far.find(op.object) == written_so_far.end()) {
        external_reads_.push_back(op);
      }
    } else {
      write_set.insert(op.object);
      written_so_far.insert(op.object);
      last_write_pos[op.object] = i;
    }
  }

  objects_.assign(all.begin(), all.end());
  robjects_.assign(read_set.begin(), read_set.end());
  wobjects_.assign(write_set.begin(), write_set.end());

  // Final writes in object order (deterministic).
  for (const auto& [object, pos] : last_write_pos) {
    final_writes_.push_back(ops_[pos]);
  }
}

bool MOperation::writes(ObjectId x) const {
  return std::binary_search(wobjects_.begin(), wobjects_.end(), x);
}

bool MOperation::reads(ObjectId x) const {
  return std::binary_search(robjects_.begin(), robjects_.end(), x);
}

bool MOperation::touches(ObjectId x) const {
  return std::binary_search(objects_.begin(), objects_.end(), x);
}

Value MOperation::final_write_value(ObjectId x) const {
  const auto it = std::lower_bound(
      final_writes_.begin(), final_writes_.end(), x,
      [](const Operation& op, ObjectId object) { return op.object < object; });
  MOCC_ASSERT_MSG(it != final_writes_.end() && it->object == x,
                  "final_write_value on object not written");
  return it->value;
}

std::string MOperation::to_string() const {
  std::ostringstream out;
  out << "P" << process_;
  if (!label_.empty()) out << " '" << label_ << "'";
  out << " [" << invoke_ << "," << response_ << "]:";
  for (const Operation& op : ops_) {
    out << " " << (op.type == OpType::kRead ? "r" : "w") << "(x" << op.object << ")"
        << op.value;
    if (op.type == OpType::kRead) {
      out << "<-";
      if (op.reads_from == kInitialMOp) {
        out << "init";
      } else {
        out << "m" << op.reads_from;
      }
    }
  }
  return out.str();
}

}  // namespace mocc::core
