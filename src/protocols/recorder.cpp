#include "protocols/recorder.hpp"

#include "util/assert.hpp"

namespace mocc::protocols {

ExecutionRecorder::ExecutionRecorder(std::size_t num_processes, std::size_t num_objects)
    : num_processes_(num_processes), num_objects_(num_objects) {}

core::MOpId ExecutionRecorder::begin(core::ProcessId process, std::string label,
                                     core::Time invoke) {
  MOCC_ASSERT(process < num_processes_);
  InvocationRecord record;
  record.process = process;
  record.label = std::move(label);
  record.invoke = invoke;
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
  return static_cast<core::MOpId>(records_.size() - 1);
}

void ExecutionRecorder::complete(core::MOpId id, std::vector<core::Operation> ops,
                                 core::Time response, util::VersionVector timestamp,
                                 std::optional<std::uint64_t> ww_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  MOCC_ASSERT(id < records_.size());
  InvocationRecord& record = records_[id];
  MOCC_ASSERT_MSG(!record.completed, "double completion");
  record.ops = std::move(ops);
  record.response = response;
  record.timestamp = std::move(timestamp);
  record.ww_seq = ww_seq;
  record.completed = true;
  ++completed_;
}

std::size_t ExecutionRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::size_t ExecutionRecorder::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}

bool ExecutionRecorder::all_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_ == records_.size();
}

const InvocationRecord& ExecutionRecorder::record(core::MOpId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  MOCC_ASSERT(id < records_.size());
  return records_[id];
}

core::History ExecutionRecorder::build_history() const {
  std::lock_guard<std::mutex> lock(mu_);
  MOCC_ASSERT_MSG(completed_ == records_.size(),
                  "cannot build history with outstanding invocations");
  core::History h(num_processes_, num_objects_);
  h.reserve(records_.size());
  for (const auto& record : records_) {
    h.add(core::MOperation(record.process, record.ops, record.invoke, record.response,
                           record.label));
  }
  return h;
}

core::WwRanks ExecutionRecorder::ww_ranks() const {
  std::lock_guard<std::mutex> lock(mu_);
  core::WwRanks ranks;
  ranks.reserve(records_.size());
  for (const auto& record : records_) ranks.push_back(record.ww_seq);
  return ranks;
}

core::TimestampView ExecutionRecorder::timestamps() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const util::VersionVector*> timestamps;
  timestamps.reserve(records_.size());
  for (const auto& record : records_) {
    if (record.timestamp.empty() && zeros_.empty()) zeros_ = util::VersionVector(num_objects_);
    timestamps.push_back(record.timestamp.empty() ? &zeros_ : &record.timestamp);
  }
  return core::TimestampView(std::move(timestamps));
}

core::ProtocolTrace ExecutionRecorder::build_trace(const core::History& h,
                                                   bool include_process_order) const {
  return core::protocol_trace(h,
                              include_process_order ? core::Condition::kMSequentialConsistency
                                                    : core::Condition::kMLinearizability,
                              ww_ranks(), timestamps());
}

}  // namespace mocc::protocols
