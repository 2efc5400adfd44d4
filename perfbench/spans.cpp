#include "spans.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <ostream>

namespace perfbench {

std::uint32_t SpanRecorder::add(std::string_view name, std::string_view layer,
                                std::uint64_t trace, std::uint32_t parent,
                                Clock::time_point begin, Clock::time_point end) {
  if (!enabled_) return 0;
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(WallSpan{name, layer, trace, id, parent, begin, end, 0.0, {}});
  return id;
}

std::uint32_t SpanRecorder::open(std::string_view name, std::string_view layer,
                                 std::uint64_t trace, std::uint32_t parent,
                                 Clock::time_point begin) {
  return add(name, layer, trace, parent, begin, begin);
}

void SpanRecorder::close(std::uint32_t id, Clock::time_point end) {
  if (id != 0) spans_[id - 1].end = end;
}

void SpanRecorder::add_hidden(std::uint32_t id, std::string_view layer, double seconds) {
  if (id == 0) return;
  spans_[id - 1].hidden_s += seconds;
  spans_[id - 1].hidden_layer = layer;
}

std::vector<SelfTime> SpanRecorder::self_times() const {
  std::vector<double> children(spans_.size(), 0.0);
  for (const WallSpan& span : spans_) {
    if (span.parent != 0) children[span.parent - 1] += seconds_between(span.begin, span.end);
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const WallSpan& span = spans_[i];
    by_layer[std::string(span.layer)] +=
        seconds_between(span.begin, span.end) - children[i] - span.hidden_s;
    if (span.hidden_s > 0.0) by_layer[std::string(span.hidden_layer)] += span.hidden_s;
  }
  std::vector<SelfTime> rows;
  for (const auto& [layer, seconds] : by_layer) rows.push_back({layer, seconds});
  std::sort(rows.begin(), rows.end(),
            [](const SelfTime& a, const SelfTime& b) { return a.seconds > b.seconds; });
  return rows;
}

double SpanRecorder::root_seconds() const {
  double total = 0.0;
  for (const WallSpan& span : spans_) {
    if (span.parent == 0) total += seconds_between(span.begin, span.end);
  }
  return total;
}

void SpanRecorder::write_chrome_json(std::ostream& out, std::string_view workload) const {
  const auto micros = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"" << workload
      << "\"},\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const WallSpan& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << span.name << "\",\"cat\":\""
        << span.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << micros(span.begin)
        << ",\"dur\":" << micros(span.end) - micros(span.begin)
        << ",\"args\":{\"trace\":" << span.trace << ",\"span\":" << span.id
        << ",\"parent\":" << span.parent;
    if (span.hidden_s > 0.0) {
      out << ",\"" << span.hidden_layer << "_us\":" << span.hidden_s * 1e6;
    }
    out << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
