// Wall-clock spans recorded by the benchmark around its calls into each
// layer (the library itself carries no wall timers).
//
// A span has a name, a layer, a start, an end, a parent, and the id of the
// history (or exec repetition) it belongs to. Spans stay in memory and are
// written out once, at the end of the run, as Chrome trace_event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

struct WallSpan {
  std::string_view name;   ///< e.g. "core.audit" (a string literal)
  std::string_view layer;  ///< module the call enters, e.g. "core"
  std::uint64_t trace = 0;  ///< history / repetition id, shared by its spans
  std::uint32_t id = 0;     ///< 1-based, unique within the recorder
  std::uint32_t parent = 0;  ///< 0 for a root span
  Clock::time_point begin{};
  Clock::time_point end{};
  /// Time inside this span spent in a child layer whose calls are too
  /// frequent to keep one span each (the streaming auditor's per-event
  /// ingest): subtracted from this span's self time, charged to
  /// `hidden_layer`.
  double hidden_s = 0.0;
  std::string_view hidden_layer;
};

/// One row of the self-time table: a layer's time with its children's
/// time removed.
struct SelfTime {
  std::string layer;
  double seconds = 0.0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Records a finished interval; returns its id (0 when disabled). The
  /// caller takes the clock readings, so a disabled recorder adds nothing
  /// to the timed path but the call itself.
  std::uint32_t add(std::string_view name, std::string_view layer, std::uint64_t trace,
                    std::uint32_t parent, Clock::time_point begin, Clock::time_point end);
  /// Opens a span whose end is set by close(), so that children can name
  /// it as their parent before it ends. Returns 0 when disabled.
  std::uint32_t open(std::string_view name, std::string_view layer, std::uint64_t trace,
                     std::uint32_t parent, Clock::time_point begin);
  void close(std::uint32_t id, Clock::time_point end);
  void add_hidden(std::uint32_t id, std::string_view layer, double seconds);

  const std::vector<WallSpan>& spans() const { return spans_; }

  /// Self time per layer over every recorded span, largest first.
  std::vector<SelfTime> self_times() const;
  /// Summed duration of the root spans.
  double root_seconds() const;

  /// Chrome / Perfetto trace_event JSON ("X" slices, microseconds).
  void write_chrome_json(std::ostream& out, std::string_view workload) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<WallSpan> spans_;
};

}  // namespace perfbench
