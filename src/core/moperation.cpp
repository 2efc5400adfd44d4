#include "core/moperation.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

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

  // Every derived set comes from sorted vectors: an m-op holds a handful
  // of ops (verify's snapshot holds thousands), and node-based sets cost
  // an allocation per element.
  const auto num_writes = static_cast<std::size_t>(std::count_if(
      ops_.begin(), ops_.end(), [](const Operation& op) { return op.type == OpType::kWrite; }));
  const std::size_t num_reads = ops_.size() - num_writes;
  std::vector<std::pair<ObjectId, std::size_t>> writes;  // (object, position)
  writes.reserve(num_writes);
  robjects_.reserve(num_reads);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].type == OpType::kRead) {
      robjects_.push_back(ops_[i].object);
    } else {
      writes.emplace_back(ops_[i].object, i);
    }
  }
  std::sort(robjects_.begin(), robjects_.end());
  robjects_.erase(std::unique(robjects_.begin(), robjects_.end()), robjects_.end());
  std::sort(writes.begin(), writes.end());

  // Final writes in object order (deterministic): each object's last pair.
  wobjects_.reserve(num_writes);
  final_writes_.reserve(num_writes);
  for (std::size_t k = 0; k < writes.size(); ++k) {
    if (k + 1 == writes.size() || writes[k + 1].first != writes[k].first) {
      wobjects_.push_back(writes[k].first);
      final_writes_.push_back(ops_[writes[k].second]);
    }
  }
  objects_.reserve(robjects_.size() + wobjects_.size());
  std::set_union(robjects_.begin(), robjects_.end(), wobjects_.begin(), wobjects_.end(),
                 std::back_inserter(objects_));

  // A read preceded by an own write to the same object is internal: it
  // must return the own value and imposes no cross-m-op constraint. The
  // object's first write is its first pair.
  external_reads_.reserve(num_reads);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const Operation& op = ops_[i];
    if (op.type != OpType::kRead) continue;
    const auto first_write = std::lower_bound(
        writes.begin(), writes.end(), std::make_pair(op.object, std::size_t{0}));
    const bool internal = first_write != writes.end() &&
                          first_write->first == op.object && first_write->second < i;
    if (!internal) external_reads_.push_back(op);
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
