#include "check/replay.hpp"

#include <memory>
#include <sstream>
#include <utility>

#include "api/system.hpp"
#include "util/assert.hpp"

namespace mocc::check {
namespace {

constexpr const char* kVersionLine = "mocc-check-replay v1";

/// The format is line-oriented; violation reasons (audit reports) can be
/// multi-line, so they are flattened onto the reason line.
std::string single_line(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ';';
  }
  return out;
}

/// Follows a recorded choice sequence, verifying each step's structural
/// signature; the first mismatch aborts the run and is reported instead
/// of silently exploring a different execution.
class FixedScheduleController final : public sim::ScheduleController {
 public:
  explicit FixedScheduleController(const std::vector<ChoiceRecord>& choices)
      : choices_(choices) {}

  std::size_t choose(const std::vector<Choice>& pending) override {
    if (!divergence_.empty()) return kAbortRun;
    const std::size_t step = step_++;
    if (step >= choices_.size()) {
      divergence_ = "replay diverged at step " + std::to_string(step) +
                    ": execution has more choice points than the recorded "
                    "schedule (" +
                    std::to_string(choices_.size()) + ")";
      return kAbortRun;
    }
    const ChoiceRecord& record = choices_[step];
    if (pending.size() != record.enabled) {
      divergence_ = "replay diverged at step " + std::to_string(step) +
                    ": " + std::to_string(pending.size()) +
                    " deliveries enabled, recorded " +
                    std::to_string(record.enabled);
      return kAbortRun;
    }
    if (record.chosen >= pending.size()) {
      divergence_ = "replay diverged at step " + std::to_string(step) +
                    ": recorded choice index " + std::to_string(record.chosen) +
                    " out of range";
      return kAbortRun;
    }
    const Choice& choice = pending[record.chosen];
    if (choice.seq != record.seq || choice.from != record.from ||
        choice.to != record.to || choice.kind != record.kind ||
        choice.payload_hash != record.payload_hash) {
      std::ostringstream out;
      out << "replay diverged at step " << step
          << ": chosen delivery signature mismatch (recorded seq="
          << record.seq << " " << record.from << "->" << record.to
          << " kind=" << record.kind << " payload=" << record.payload_hash
          << ", execution has seq=" << choice.seq << " " << choice.from
          << "->" << choice.to << " kind=" << choice.kind
          << " payload=" << choice.payload_hash << ")";
      divergence_ = out.str();
      return kAbortRun;
    }
    return record.chosen;
  }

  std::size_t steps() const { return step_; }
  const std::string& divergence() const { return divergence_; }

 private:
  const std::vector<ChoiceRecord>& choices_;
  std::size_t step_ = 0;
  std::string divergence_;
};

bool parse_u64(std::istringstream& in, const std::string& key,
               std::uint64_t& out, std::string& error) {
  if (in >> out) return true;
  error = "malformed value for '" + key + "'";
  return false;
}

}  // namespace

std::string format_counterexample(const Counterexample& counterexample) {
  const ExploreConfig& config = counterexample.config;
  std::ostringstream out;
  out << kVersionLine << "\n";
  out << "protocol " << config.protocol << "\n";
  out << "broadcast " << config.broadcast << "\n";
  out << "mutation " << (config.mutation.empty() ? "-" : config.mutation)
      << "\n";
  out << "processes " << config.num_processes << "\n";
  out << "objects " << config.num_objects << "\n";
  out << "ops " << config.ops_per_process << "\n";
  // Emitted only when on: unbatched files stay byte-identical to v1
  // writers, and v1 readers of unbatched files keep working.
  if (config.batching) out << "batching 1\n";
  out << "reason "
      << (counterexample.reason.empty() ? "-" : single_line(counterexample.reason))
      << "\n";
  out << "choices " << counterexample.choices.size() << "\n";
  for (const ChoiceRecord& record : counterexample.choices) {
    out << "choice " << record.enabled << " " << record.chosen << " "
        << record.seq << " " << record.from << " " << record.to << " "
        << record.kind << " " << record.payload_hash << "\n";
  }
  return out.str();
}

bool parse_counterexample(const std::string& text, Counterexample& out,
                          std::string& error) {
  out = Counterexample{};
  std::istringstream stream(text);
  std::string line;
  bool saw_version = false;
  bool saw_choices_count = false;
  std::uint64_t declared_choices = 0;
  while (std::getline(stream, line)) {
    // Strip trailing CR and '#' comments; skip blank lines.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) continue;

    if (!saw_version) {
      if (line != kVersionLine) {
        error = "unsupported replay file (expected '" +
                std::string(kVersionLine) + "', got '" + line + "')";
        return false;
      }
      saw_version = true;
      continue;
    }

    if (key == "protocol") {
      if (!(fields >> out.config.protocol)) {
        error = "malformed value for 'protocol'";
        return false;
      }
    } else if (key == "broadcast") {
      if (!(fields >> out.config.broadcast)) {
        error = "malformed value for 'broadcast'";
        return false;
      }
    } else if (key == "mutation") {
      std::string value;
      if (!(fields >> value)) {
        error = "malformed value for 'mutation'";
        return false;
      }
      out.config.mutation = value == "-" ? std::string{} : value;
    } else if (key == "batching") {
      std::uint64_t value = 0;
      if (!parse_u64(fields, key, value, error)) return false;
      out.config.batching = value != 0;
    } else if (key == "processes" || key == "objects" || key == "ops" ||
               key == "exact-budget" || key == "choices") {
      std::uint64_t value = 0;
      if (!parse_u64(fields, key, value, error)) return false;
      if (key == "processes") {
        out.config.num_processes = static_cast<std::size_t>(value);
      } else if (key == "objects") {
        out.config.num_objects = static_cast<std::size_t>(value);
      } else if (key == "ops") {
        out.config.ops_per_process = static_cast<std::size_t>(value);
      } else if (key == "choices") {
        declared_choices = value;
        saw_choices_count = true;
      }  // exact-budget: written by older builds, ignored
    } else if (key == "reason") {
      std::string rest;
      std::getline(fields >> std::ws, rest);
      out.reason = rest == "-" ? std::string{} : rest;
    } else if (key == "choice") {
      ChoiceRecord record;
      std::uint64_t enabled = 0;
      std::uint64_t chosen = 0;
      std::uint64_t from = 0;
      std::uint64_t to = 0;
      std::uint64_t kind = 0;
      if (!parse_u64(fields, key, enabled, error) ||
          !parse_u64(fields, key, chosen, error) ||
          !parse_u64(fields, key, record.seq, error) ||
          !parse_u64(fields, key, from, error) ||
          !parse_u64(fields, key, to, error) ||
          !parse_u64(fields, key, kind, error) ||
          !parse_u64(fields, key, record.payload_hash, error)) {
        return false;
      }
      record.enabled = static_cast<std::uint32_t>(enabled);
      record.chosen = static_cast<std::uint32_t>(chosen);
      record.from = static_cast<std::uint32_t>(from);
      record.to = static_cast<std::uint32_t>(to);
      record.kind = static_cast<std::uint32_t>(kind);
      out.choices.push_back(record);
    } else {
      error = "unknown replay file key '" + key + "'";
      return false;
    }
  }
  if (!saw_version) {
    error = "empty replay file";
    return false;
  }
  if (out.config.protocol.empty()) {
    error = "replay file missing 'protocol'";
    return false;
  }
  if (!saw_choices_count || declared_choices != out.choices.size()) {
    error = "replay file declares " + std::to_string(declared_choices) +
            " choices but carries " + std::to_string(out.choices.size());
    return false;
  }
  return true;
}

ReplayResult replay(const Counterexample& counterexample,
                    obs::TraceSink* trace_sink) {
  ReplayResult result;
  const ExploreConfig& cfg = counterexample.config;

  api::System system(system_config_for(cfg));
  if (trace_sink != nullptr) system.set_trace_sink(trace_sink);

  FixedScheduleController controller(counterexample.choices);
  system.set_schedule_controller(&controller);

  auto completed = std::make_shared<std::uint64_t>(0);
  const auto workload = fixed_workload(cfg);
  for (std::size_t p = 0; p < workload.size(); ++p) {
    for (const mscript::Program& program : workload[p]) {
      system.submit(static_cast<core::ProcessId>(p), 1, program,
                    [completed](const protocols::InvocationOutcome&) {
                      ++*completed;
                    });
    }
  }
  system.run();

  if (!controller.divergence().empty()) {
    result.divergence = controller.divergence();
    return result;
  }
  if (controller.steps() != counterexample.choices.size()) {
    result.divergence =
        "replay diverged: execution quiesced after " +
        std::to_string(controller.steps()) + " of " +
        std::to_string(counterexample.choices.size()) + " recorded choices";
    return result;
  }
  result.faithful = true;
  ScheduleVerdict verdict =
      check_terminal_schedule(system, cfg, *completed);
  result.violation = std::move(verdict.violation);
  result.history_level = verdict.history_level;
  return result;
}

}  // namespace mocc::check
