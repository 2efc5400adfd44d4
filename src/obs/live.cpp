#include "obs/live.hpp"

#include <algorithm>
#include <sstream>

#include "obs/metrics.hpp"

namespace mocc::obs {

std::string_view to_string(StreamVerdict verdict) {
  constexpr std::string_view kNames[] = {"ok", "violation", "inconclusive"};
  return kNames[static_cast<std::size_t>(verdict)];
}

std::string StreamingReport::to_string() const {
  std::ostringstream oss;
  oss << "verdict=" << obs::to_string(verdict) << " mops=" << mops << " pending=" << pending;
  if (!detail.empty()) oss << " — " << detail;
  return oss.str();
}

void export_metrics(const StreamingReport& report, Registry& registry) {
  registry.counter("audit_mops").set(report.mops);
  registry.gauge("audit_pending").set(static_cast<double>(report.pending));
  registry.gauge("audit_verdict").set(static_cast<double>(static_cast<int>(report.verdict)));
}

void StreamingAuditor::on_event(const TraceEvent& event) {
  if (downstream_ != nullptr) downstream_->on_event(event);
  if (event.type == TraceEventType::kMOpInvoke) {
    check_.invoked(event.id, event.time);
    return sync();
  }
  if (event.type != TraceEventType::kOpRead && event.type != TraceEventType::kOpWrite) return;
  ObservedOp op;
  op.object = event.kind;
  op.value = static_cast<core::Value>(event.arg);
  if (event.type == TraceEventType::kOpWrite) {
    op.type = core::OpType::kWrite;
  } else if (event.peer != core::kInitialMOp) {
    op.writer = event.peer;
  }
  // An m-operation's op events arrive together, right before its span.
  for (std::size_t i = live_; i-- > 0;) {
    if (assembling_[i].first == event.id) return assembling_[i].second.push_back(op);
  }
  if (live_ == assembling_.size()) assembling_.emplace_back();
  auto& [id, ops] = assembling_[live_++];
  id = event.id;
  ops.assign(1, op);
}

void StreamingAuditor::on_span(const Span& span) {
  if (downstream_ != nullptr) downstream_->on_span(span);
  if (span.type != SpanType::kMOp || span.parent_span != 0) return;
  current_.process = span.node;
  current_.key = span.id;
  current_.invoke = span.begin;
  current_.respond = span.end;
  current_.ww.reset();
  if ((span.arg >> 1) != 0) current_.ww = (span.arg >> 1) - 1;
  current_.ops.clear();
  for (std::size_t i = live_; i-- > 0;) {
    if (assembling_[i].first == span.id) {
      current_.ops.swap(assembling_[i].second);
      std::swap(assembling_[i], assembling_[--live_]);
      break;
    }
  }
  observe(current_);
}

void StreamingAuditor::observe(const ObservedMop& mop) {
  ++report_.mops;
  check_.completed(mop);
  sync();
}

void StreamingAuditor::sync() {
  report_.pending = check_.pending();
  if (check_.outcome() == core::Outcome::kUndecided) mark_inconclusive(check_.detail());
  if (check_.outcome() != core::Outcome::kViolation || violated()) return;
  report_.verdict = StreamVerdict::kViolation;
  report_.detail = check_.detail();
  if (violation_cb_) violation_cb_(report_);
}

void StreamingAuditor::mark_inconclusive(const std::string& why) {
  if (report_.verdict != StreamVerdict::kOk) return;
  report_.verdict = StreamVerdict::kInconclusive;
  report_.detail = why;
}

void StreamingAuditor::note_drops(std::uint64_t events_dropped, std::uint64_t spans_dropped) {
  noted_event_drops_ = std::max(noted_event_drops_, events_dropped);
  noted_span_drops_ = std::max(noted_span_drops_, spans_dropped);
  if (noted_event_drops_ == 0 && noted_span_drops_ == 0) return;
  std::ostringstream why;
  why << "trace sink dropped " << noted_event_drops_ << " events and " << noted_span_drops_
      << " spans — the stream truncates the execution (same gate as post-hoc analysis)";
  mark_inconclusive(why.str());
}

const StreamingReport& StreamingAuditor::finish() {
  if (!finished_) {
    finished_ = true;
    check_.finish();
    sync();
  }
  return report_;
}

}  // namespace mocc::obs
