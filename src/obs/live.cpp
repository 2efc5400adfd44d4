#include "obs/live.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "core/history.hpp"
#include "core/verdict.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace mocc::obs {

std::string_view to_string(StreamVerdict verdict) {
  switch (verdict) {
    case StreamVerdict::kOk:
      return "ok";
    case StreamVerdict::kViolation:
      return "violation";
    case StreamVerdict::kInconclusive:
      return "inconclusive";
  }
  return "?";
}

std::string StreamingReport::to_string() const {
  std::ostringstream oss;
  oss << "verdict=" << obs::to_string(verdict) << " mops=" << mops
      << " windows=" << windows << " passed=" << windows_passed
      << " failed=" << windows_failed << " undecided=" << windows_undecided;
  if (!detail.empty()) oss << " — " << detail;
  return oss.str();
}

StreamingAuditor::StreamingAuditor(StreamingAuditorOptions options)
    : options_(options), horizon_(std::max(kRetainUpdates, options.window)) {
  if (options_.window == 0) options_.window = 1;
}

void StreamingAuditor::set_violation_callback(
    std::function<void(const StreamingReport&)> cb) {
  violation_cb_ = std::move(cb);
}

void StreamingAuditor::set_downstream(TraceSink* sink) { downstream_ = sink; }

void StreamingAuditor::on_event(const TraceEvent& event) {
  if (downstream_ != nullptr) downstream_->on_event(event);
  if (event.type != TraceEventType::kOpRead &&
      event.type != TraceEventType::kOpWrite) {
    return;
  }
  ObservedOp op;
  op.object = event.kind;
  op.value = static_cast<core::Value>(event.arg);
  if (event.type == TraceEventType::kOpRead) {
    op.type = core::OpType::kRead;
    // Reads preceded by this m-operation's own write record themselves as
    // the writer (RecordingStore); those are internal in the paper's
    // sense and constrain nothing across m-operations.
    op.internal = event.peer == event.id;
    op.writer = event.peer == core::kInitialMOp
                    ? kInitialWriter
                    : static_cast<std::uint64_t>(event.peer);
  } else {
    op.type = core::OpType::kWrite;
  }
  pending_ops_[event.id].push_back(op);
}

void StreamingAuditor::on_span(const Span& span) {
  if (downstream_ != nullptr) downstream_->on_span(span);
  if (span.type != SpanType::kMOp || span.parent_span != 0) return;
  ObservedMop mop;
  mop.process = span.node;
  mop.key = span.id;
  mop.invoke = span.begin;
  mop.respond = span.end;
  mop.is_update = (span.arg & 1) != 0;
  if ((span.arg >> 1) != 0) mop.ww = (span.arg >> 1) - 1;
  if (const auto it = pending_ops_.find(span.id); it != pending_ops_.end()) {
    mop.ops = std::move(it->second);
    pending_ops_.erase(it);
  }
  observe(std::move(mop));
}

void StreamingAuditor::observe(ObservedMop mop) {
  ++completions_;
  ++report_.mops;
  if (violated()) return;  // verdict is final; stop paying for analysis

  max_process_ = std::max(max_process_, mop.process);
  for (const ObservedOp& op : mop.ops) {
    max_object_ = std::max(max_object_, op.object);
  }

  // Global well-formedness: each process's m-operations must respond
  // before its next invokes (§2.2). Exact and windowless.
  if (last_respond_.size() <= mop.process) {
    last_respond_.resize(mop.process + 1, 0);
  }
  if (mop.invoke < last_respond_[mop.process]) {
    std::ostringstream why;
    why << "process " << mop.process
        << " subhistory not sequential: m-operation key " << mop.key
        << " invoked at " << mop.invoke << " before the previous response at "
        << last_respond_[mop.process];
    mark_violation(report_.windows, why.str());
    return;
  }
  last_respond_[mop.process] = mop.respond;

  if (mop.is_update) {
    if (!record_update(mop)) return;  // duplicate key / duplicate position
  }

  // Readiness: every external read's writer must have completed before
  // the m-operation can be value-checked and windowed. Overlapping
  // responses make forward references routine (a query can read an
  // update's value before the update's origin responds), so unresolved
  // m-operations park until their writers land.
  std::vector<std::uint64_t> missing;
  for (const ObservedOp& op : mop.ops) {
    if (op.type != core::OpType::kRead || op.internal) continue;
    if (op.writer == kInitialWriter) continue;
    if (writers_.count(op.writer) != 0) continue;
    if (std::find(missing.begin(), missing.end(), op.writer) == missing.end()) {
      missing.push_back(op.writer);
    }
  }
  const std::uint64_t completed_key = mop.is_update ? mop.key : kInitialWriter;
  if (missing.empty()) {
    admit(std::move(mop));
  } else {
    Waiting parked;
    parked.mop = std::move(mop);
    parked.missing = std::move(missing);
    parked.enqueued_at = completions_;
    waiting_.push_back(std::move(parked));
  }
  if (completed_key != kInitialWriter) retire_waiting(completed_key);
  expire_waiting();
  evict_writers();
}

bool StreamingAuditor::record_update(const ObservedMop& mop) {
  WriterRecord record;
  record.process = mop.process;
  record.invoke = mop.invoke;
  record.respond = mop.respond;
  record.ww = mop.ww;
  for (const ObservedOp& op : mop.ops) {
    if (op.type != core::OpType::kWrite) continue;
    bool replaced = false;
    for (auto& [object, value] : record.writes) {
      if (object == op.object) {
        value = op.value;  // later write wins: only the final value is visible
        replaced = true;
        break;
      }
    }
    if (!replaced) record.writes.emplace_back(op.object, op.value);
  }
  const auto [slot, fresh] = writers_.emplace(mop.key, std::move(record));
  if (!fresh) {
    std::ostringstream why;
    why << "two update m-operations carry the same key " << mop.key;
    mark_violation(report_.windows, why.str());
    return false;
  }
  WriterRecord& writer = slot->second;
  writer_order_.push_back(mop.key);
  if (mop.ww.has_value() && !ww_to_key_.emplace(*mop.ww, mop.key).second) {
    std::ostringstream why;
    why << "two m-operations claim abcast position " << *mop.ww;
    mark_violation(report_.windows, why.str());
    return false;
  }
  // Index ranked writes by object, and pin each object's latest writer:
  // the highest ww rank, or the most recent completion without ranks.
  for (const auto& [object, value] : writer.writes) {
    (void)value;
    if (mop.ww.has_value()) {
      auto& index = by_object_ww_[object];
      index.insert(std::lower_bound(index.begin(), index.end(),
                                    std::make_pair(*mop.ww, std::uint64_t{0})),
                   {*mop.ww, mop.key});
    }
    const auto [latest, first] = latest_writer_.try_emplace(object, mop.key);
    if (!first) {
      WriterRecord& previous = writers_.at(latest->second);
      if (mop.ww.has_value() && previous.ww.has_value() && *mop.ww < *previous.ww) {
        continue;
      }
      if (--previous.latest_of == 0 && !previous.queued) {
        previous.queued = true;  // displaced: ages out like any writer
        writer_order_.push_back(latest->second);
      }
      latest->second = mop.key;
    }
    ++writer.latest_of;
  }
  return true;
}

void StreamingAuditor::retire_waiting(std::uint64_t completed_key) {
  for (std::size_t i = 0; i < waiting_.size();) {
    auto& missing = waiting_[i].missing;
    missing.erase(std::remove(missing.begin(), missing.end(), completed_key),
                  missing.end());
    if (missing.empty()) {
      ObservedMop ready = std::move(waiting_[i].mop);
      waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(i));
      admit(std::move(ready));
      if (violated()) return;
    } else {
      ++i;
    }
  }
}

void StreamingAuditor::expire_waiting() {
  for (std::size_t i = 0; i < waiting_.size();) {
    if (completions_ - waiting_[i].enqueued_at > horizon_) {
      std::ostringstream why;
      why << "m-operation key " << waiting_[i].mop.key
          << " reads from writer key " << waiting_[i].missing.front()
          << ", which is not retained " << horizon_
          << " completions later (evicted, or not yet completed)";
      mark_inconclusive(why.str());
      waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void StreamingAuditor::admit(ObservedMop mop) {
  // Value coherence, exact and windowless: every external read must
  // return exactly the value its writer's final write stored (and the
  // writer must actually write the object). Retained writer values play
  // the role exec::verify_execution's replayed store plays.
  for (const ObservedOp& op : mop.ops) {
    if (op.type != core::OpType::kRead || op.internal) continue;
    if (op.writer == kInitialWriter) {
      if (op.value != options_.initial_value) {
        std::ostringstream why;
        why << "m-operation key " << mop.key << " reads object " << op.object
            << " = " << op.value << " from the initializing write, expected "
            << options_.initial_value;
        mark_violation(report_.windows, why.str());
        return;
      }
      continue;
    }
    const auto it = writers_.find(op.writer);
    MOCC_ASSERT(it != writers_.end());  // readiness guarantees completion
    const WriterRecord& writer = it->second;
    bool matched = false;
    bool writes_object = false;
    for (const auto& [object, value] : writer.writes) {
      if (object != op.object) continue;
      writes_object = true;
      matched = value == op.value;
      break;
    }
    if (!writes_object || !matched) {
      std::ostringstream why;
      why << "m-operation key " << mop.key << " reads object " << op.object
          << " = " << op.value << " from writer key " << op.writer << " which "
          << (writes_object ? "stored a different final value"
                            : "never writes that object");
      mark_violation(report_.windows, why.str());
      return;
    }
  }
  buffer_.push_back(std::move(mop));
  if (buffer_.size() >= options_.window) cut_window();
}

void StreamingAuditor::evict_writers() {
  if (writer_order_.size() <= horizon_) return;
  // Writers a parked or buffered m-operation will need stay queued.
  std::set<std::uint64_t> needed;
  const auto need_reads = [&](const ObservedMop& mop) {
    if (mop.is_update) needed.insert(mop.key);
    for (const ObservedOp& op : mop.ops) {
      if (op.type == core::OpType::kRead && !op.internal &&
          op.writer != kInitialWriter) {
        needed.insert(op.writer);
      }
    }
  };
  for (const Waiting& parked : waiting_) need_reads(parked.mop);
  for (const ObservedMop& mop : buffer_) need_reads(mop);
  std::deque<std::uint64_t> kept;
  while (writer_order_.size() + kept.size() > horizon_ && !writer_order_.empty()) {
    const std::uint64_t key = writer_order_.front();
    writer_order_.pop_front();
    const auto it = writers_.find(key);
    if (it->second.latest_of != 0) {
      // An object's latest writer leaves the queue but stays retained;
      // record_update queues it again once it is displaced.
      it->second.queued = false;
      continue;
    }
    if (needed.count(key) != 0) {
      kept.push_back(key);
      continue;
    }
    if (it->second.ww.has_value()) {
      ww_to_key_.erase(*it->second.ww);
      for (const auto& [object, value] : it->second.writes) {
        (void)value;
        auto& index = by_object_ww_[object];
        index.erase(std::remove(index.begin(), index.end(),
                                std::make_pair(*it->second.ww, key)),
                    index.end());
      }
    }
    writers_.erase(it);
  }
  for (auto it = kept.rbegin(); it != kept.rend(); ++it) {
    writer_order_.push_front(*it);
  }
}

void StreamingAuditor::cut_window() {
  const std::size_t wid = report_.windows;
  ++report_.windows;

  struct Entry {
    core::ProcessId process;
    core::Time invoke;
    core::Time respond;
    std::optional<std::uint64_t> ww;
    const ObservedMop* member;        ///< null for ghosts
    const WriterRecord* ghost;        ///< null for members
    std::uint64_t key;
  };

  std::set<std::uint64_t> member_update_keys;
  for (const ObservedMop& mop : buffer_) {
    if (mop.is_update) member_update_keys.insert(mop.key);
  }

  // Ghosts: every referenced pre-window writer, plus — per external read
  // of object x from writer w — every retained x-writer with an abcast
  // position after w's (the interfering writers the legality check must
  // see). Ghosts keep their original times and positions, so the window
  // history is a sub-history projection of the full execution and the
  // checks below cannot flag an admissible run.
  std::map<std::uint64_t, const WriterRecord*> ghosts;
  const std::size_t ghost_cap = 4 * options_.window + 64;
  bool overflow = false;
  const auto add_ghost = [&](std::uint64_t key) -> bool {
    if (member_update_keys.count(key) != 0 || ghosts.count(key) != 0) {
      return true;
    }
    const auto it = writers_.find(key);
    if (it == writers_.end()) return false;
    ghosts.emplace(key, &it->second);
    return true;
  };
  for (const ObservedMop& mop : buffer_) {
    for (const ObservedOp& op : mop.ops) {
      if (op.type != core::OpType::kRead || op.internal) continue;
      std::optional<std::uint64_t> after;  // include x-writers after this rank
      if (op.writer != kInitialWriter) {
        if (!add_ghost(op.writer)) {
          std::ostringstream why;
          why << "window " << wid << ": writer key " << op.writer
              << " was evicted before the window cut";
          mark_inconclusive(why.str());
          buffer_.clear();
          return;
        }
        // Every completed update — member or pre-window — lives in
        // writers_ until evicted, and add_ghost just proved this one is
        // a member or retained.
        const auto wit = writers_.find(op.writer);
        if (wit != writers_.end()) after = wit->second.ww;
      }
      const auto idx = by_object_ww_.find(op.object);
      if (idx == by_object_ww_.end()) continue;
      auto from = idx->second.begin();
      if (after.has_value()) {
        from = std::upper_bound(
            idx->second.begin(), idx->second.end(),
            std::make_pair(*after, std::numeric_limits<std::uint64_t>::max()));
      }
      for (auto it = from; it != idx->second.end(); ++it) {
        (void)add_ghost(it->second);  // absent = evicted mid-index; skip
        if (ghosts.size() > ghost_cap) {
          overflow = true;
          break;
        }
      }
      if (overflow) break;
    }
    if (overflow) break;
  }
  if (overflow) {
    std::ostringstream why;
    why << "window " << wid << ": interfering-writer closure exceeds "
        << ghost_cap << " ghosts";
    mark_inconclusive(why.str());
    buffer_.clear();
    return;
  }

  std::vector<Entry> entries;
  entries.reserve(buffer_.size() + ghosts.size());
  for (const ObservedMop& mop : buffer_) {
    entries.push_back({mop.process, mop.invoke, mop.respond, mop.ww, &mop,
                       nullptr, mop.key});
  }
  for (const auto& [key, record] : ghosts) {
    entries.push_back({record->process, record->invoke, record->respond,
                       record->ww, nullptr, record, key});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.invoke != b.invoke) return a.invoke < b.invoke;
    if (a.respond != b.respond) return a.respond < b.respond;
    return a.key < b.key;
  });

  // History::add cannot reject this order: observe() checked every
  // process's sequencing over the whole stream, and members ∪ ghosts is
  // a subset of it.
  std::map<std::uint64_t, core::MOpId> local_id;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    local_id[entries[i].key] = static_cast<core::MOpId>(i);
  }

  core::History h(max_process_ + 1, max_object_ + 1);
  core::WwRanks ranks;
  ranks.reserve(entries.size());
  core::Time window_end = 0;
  for (const Entry& entry : entries) {
    std::vector<core::Operation> ops;
    if (entry.ghost != nullptr) {
      for (const auto& [object, value] : entry.ghost->writes) {
        ops.push_back(core::Operation::write(object, value));
      }
    } else {
      for (const ObservedOp& op : entry.member->ops) {
        if (op.type == core::OpType::kWrite) {
          ops.push_back(core::Operation::write(op.object, op.value));
          continue;
        }
        core::MOpId rf = core::kInitialMOp;
        if (op.internal) {
          rf = local_id[entry.key];
        } else if (op.writer != kInitialWriter) {
          rf = local_id[op.writer];
        }
        ops.push_back(core::Operation::read(op.object, op.value, rf));
      }
      window_end = std::max(window_end, entry.respond);
    }
    h.add(core::MOperation(entry.process, std::move(ops), entry.invoke, entry.respond,
                           entry.ghost != nullptr ? "ghost" : ""));
    const bool writes = entry.member == nullptr ? !entry.ghost->writes.empty()
                                                : entry.member->is_update;
    ranks.push_back(writes ? entry.ww : std::nullopt);
  }

  const core::Verdict verdict = core::check_history(
      h, options_.condition, ranks, options_.exact_budget, options_.initial_value);

  if (downstream_ != nullptr) {
    TraceEvent event;
    event.type = TraceEventType::kAuditWindow;
    event.time = window_end;
    event.kind = static_cast<std::uint32_t>(entries.size());
    event.id = wid;
    event.arg = verdict.ok() ? 0 : (verdict.violation() ? 1 : 2);
    downstream_->on_event(event);
  }

  switch (verdict.outcome) {
    case core::Outcome::kOk:
      ++report_.windows_passed;
      break;
    case core::Outcome::kViolation: {
      std::ostringstream why;
      why << verdict.detail << " [" << buffer_.size() << " m-operations, "
          << ghosts.size() << " ghosts]";
      mark_violation(wid, why.str());
      break;
    }
    case core::Outcome::kUndecided: {
      ++report_.windows_undecided;
      std::ostringstream why;
      why << "window " << wid << ": " << verdict.detail;
      mark_inconclusive(why.str());
      break;
    }
  }

  buffer_.clear();
}

void StreamingAuditor::mark_violation(std::size_t window_id,
                                      const std::string& why) {
  if (violated()) return;
  report_.verdict = StreamVerdict::kViolation;
  ++report_.windows_failed;
  report_.first_violation_window = window_id;
  std::ostringstream detail;
  detail << "window " << window_id << ": " << why;
  report_.detail = detail.str();
  if (violation_cb_) violation_cb_(report_);
}

void StreamingAuditor::mark_inconclusive(const std::string& why) {
  if (report_.verdict != StreamVerdict::kOk) return;
  report_.verdict = StreamVerdict::kInconclusive;
  report_.detail = why;
}

void StreamingAuditor::note_drops(std::uint64_t events_dropped,
                                  std::uint64_t spans_dropped) {
  if (events_dropped <= noted_event_drops_ &&
      spans_dropped <= noted_span_drops_) {
    return;
  }
  noted_event_drops_ = std::max(noted_event_drops_, events_dropped);
  noted_span_drops_ = std::max(noted_span_drops_, spans_dropped);
  if (noted_event_drops_ == 0 && noted_span_drops_ == 0) return;
  std::ostringstream why;
  why << "trace sink dropped " << noted_event_drops_ << " events and "
      << noted_span_drops_
      << " spans — the stream truncates the execution (same gate as "
         "post-hoc analysis)";
  mark_inconclusive(why.str());
}

void StreamingAuditor::note_sink(const RingBufferSink& sink) {
  note_drops(sink.dropped(), sink.spans_dropped());
}

const StreamingReport& StreamingAuditor::finish() {
  if (finished_) return report_;
  finished_ = true;
  if (!violated()) {
    for (const Waiting& parked : waiting_) {
      std::ostringstream why;
      why << "m-operation key " << parked.mop.key
          << " reads from writer key " << parked.missing.front()
          << ", which is not retained at the end of the stream (evicted, or "
             "never completed)";
      mark_inconclusive(why.str());
    }
    waiting_.clear();
    if (!buffer_.empty()) cut_window();
  }
  return report_;
}

void StreamingAuditor::export_metrics(Registry& registry) const {
  registry.counter("audit_mops").set(report_.mops);
  registry.counter("audit_windows").set(report_.windows);
  registry.counter("audit_windows_passed").set(report_.windows_passed);
  registry.counter("audit_windows_failed").set(report_.windows_failed);
  registry.counter("audit_windows_undecided").set(report_.windows_undecided);
  registry.gauge("audit_verdict")
      .set(static_cast<double>(static_cast<int>(report_.verdict)));
}

}  // namespace mocc::obs
