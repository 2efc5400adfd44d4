#include "obs/analysis.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

#include "core/verdict.hpp"
#include "obs/json.hpp"

namespace mocc::obs {

namespace {

// --- JSONL line parsing ----------------------------------------------
//
// write_trace_jsonl emits flat one-line objects whose values are
// unsigned integers or plain strings, so a minimal recursive-descent
// scanner suffices — no general JSON dependency. The parser is strict
// about structure (an artifact either round-trips or is rejected) but
// ignores unknown keys, keeping the schema additive.

struct Field {
  bool is_string = false;
  std::string str;
  std::uint64_t num = 0;
};

using Line = std::map<std::string, Field, std::less<>>;

void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
}

bool parse_string(std::string_view s, std::size_t& i, std::string* out,
                  std::string* error) {
  if (i >= s.size() || s[i] != '"') {
    *error = "expected '\"'";
    return false;
  }
  ++i;
  out->clear();
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\') {
      if (i + 1 >= s.size()) {
        *error = "dangling escape";
        return false;
      }
      const char c = s[i + 1];
      switch (c) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        default:
          *error = "unsupported escape";
          return false;
      }
      i += 2;
      continue;
    }
    out->push_back(s[i]);
    ++i;
  }
  if (i >= s.size()) {
    *error = "unterminated string";
    return false;
  }
  ++i;  // closing quote
  return true;
}

bool parse_number(std::string_view s, std::size_t& i, std::uint64_t* out,
                  std::string* error) {
  const bool negative = i < s.size() && s[i] == '-';
  if (negative) ++i;
  if (i >= s.size() || s[i] < '0' || s[i] > '9') {
    *error = "expected a number";
    return false;
  }
  std::uint64_t value = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(s[i] - '0');
    ++i;
  }
  // The writers only emit integers; reject fractions/exponents loudly
  // rather than silently truncating.
  if (i < s.size() && (s[i] == '.' || s[i] == 'e' || s[i] == 'E')) {
    *error = "unexpected non-integer number";
    return false;
  }
  *out = negative ? static_cast<std::uint64_t>(-static_cast<std::int64_t>(value))
                  : value;
  return true;
}

bool parse_line(std::string_view s, Line* out, std::string* error) {
  out->clear();
  std::size_t i = 0;
  skip_ws(s, i);
  if (i >= s.size() || s[i] != '{') {
    *error = "expected '{'";
    return false;
  }
  ++i;
  skip_ws(s, i);
  if (i < s.size() && s[i] == '}') {
    ++i;
    return true;
  }
  for (;;) {
    skip_ws(s, i);
    std::string key;
    if (!parse_string(s, i, &key, error)) return false;
    skip_ws(s, i);
    if (i >= s.size() || s[i] != ':') {
      *error = "expected ':' after key '" + key + "'";
      return false;
    }
    ++i;
    skip_ws(s, i);
    Field field;
    if (i < s.size() && s[i] == '"') {
      field.is_string = true;
      if (!parse_string(s, i, &field.str, error)) return false;
    } else {
      if (!parse_number(s, i, &field.num, error)) return false;
    }
    (*out)[key] = std::move(field);
    skip_ws(s, i);
    if (i < s.size() && s[i] == ',') {
      ++i;
      continue;
    }
    if (i < s.size() && s[i] == '}') {
      ++i;
      skip_ws(s, i);
      if (i != s.size()) {
        *error = "trailing bytes after '}'";
        return false;
      }
      return true;
    }
    *error = "expected ',' or '}'";
    return false;
  }
}

// --- Name registries (round-tripped, never re-spelled) ----------------

const std::map<std::string, TraceEventType, std::less<>>& event_by_name() {
  static const std::map<std::string, TraceEventType, std::less<>> kMap = [] {
    constexpr TraceEventType kAll[] = {
        TraceEventType::kMessageSend,    TraceEventType::kMessageDeliver,
        TraceEventType::kMOpInvoke,      TraceEventType::kMOpRespond,
        TraceEventType::kLockAcquire,    TraceEventType::kLockRelease,
        TraceEventType::kAbcastSequence, TraceEventType::kFaultDrop,
        TraceEventType::kFaultDuplicate, TraceEventType::kFaultDelay,
        TraceEventType::kFaultCrashDiscard, TraceEventType::kLinkRetransmit,
        TraceEventType::kLinkDuplicate,  TraceEventType::kLinkExhausted,
        TraceEventType::kOpRead,         TraceEventType::kOpWrite,
        TraceEventType::kBacklogSample,  TraceEventType::kBatchAssign,
        TraceEventType::kBatchFlush,     TraceEventType::kExecCommit,
        TraceEventType::kExecAbort,
    };
    std::map<std::string, TraceEventType, std::less<>> map;
    for (const TraceEventType type : kAll) map.emplace(to_string(type), type);
    return map;
  }();
  return kMap;
}

const std::map<std::string, SpanType, std::less<>>& span_by_name() {
  static const std::map<std::string, SpanType, std::less<>> kMap = [] {
    constexpr SpanType kAll[] = {
        SpanType::kMOp,    SpanType::kAbcastAgree, SpanType::kLockWait,
        SpanType::kNetHop, SpanType::kRetransmit,
    };
    std::map<std::string, SpanType, std::less<>> map;
    for (const SpanType type : kAll) map.emplace(to_string(type), type);
    return map;
  }();
  return kMap;
}

std::uint64_t get_num(const Line& line, std::string_view key) {
  const auto it = line.find(key);
  return it == line.end() ? 0 : it->second.num;
}

std::string line_error(std::size_t lineno, const std::string& why) {
  std::ostringstream out;
  out << "line " << lineno << ": " << why;
  return out.str();
}

}  // namespace

bool load_trace_jsonl(std::istream& in, TraceFile* out, std::string* error) {
  *out = TraceFile{};
  std::string text;
  std::size_t lineno = 0;
  while (std::getline(in, text)) {
    ++lineno;
    if (text.empty()) continue;
    Line line;
    std::string why;
    if (!parse_line(text, &line, &why)) {
      *error = line_error(lineno, why);
      return false;
    }
    const auto type_it = line.find(std::string_view("type"));
    if (type_it == line.end() || !type_it->second.is_string) {
      *error = line_error(lineno, "missing string field 'type'");
      return false;
    }
    const std::string& type_name = type_it->second.str;
    if (type_name == "header") {
      if (out->has_header || !out->events.empty() || !out->spans.empty()) {
        *error = line_error(lineno, "header line must come first, once");
        return false;
      }
      out->has_header = true;
      out->events_total = get_num(line, "events_total");
      out->events_dropped = get_num(line, "events_dropped");
      out->spans_total = get_num(line, "spans_total");
      out->spans_dropped = get_num(line, "spans_dropped");
      continue;
    }
    if (type_name == "span") {
      const auto span_it = line.find(std::string_view("span"));
      if (span_it == line.end() || !span_it->second.is_string) {
        *error = line_error(lineno, "span line missing string field 'span'");
        return false;
      }
      const auto name_it = span_by_name().find(span_it->second.str);
      if (name_it == span_by_name().end()) {
        *error =
            line_error(lineno, "unknown span name '" + span_it->second.str + "'");
        return false;
      }
      Span span;
      span.type = name_it->second;
      span.trace_id = get_num(line, "trace");
      span.span_id = get_num(line, "sid");
      span.parent_span = get_num(line, "parent");
      span.begin = get_num(line, "begin");
      span.end = get_num(line, "end");
      span.node = static_cast<std::uint32_t>(get_num(line, "node"));
      span.peer = static_cast<std::uint32_t>(get_num(line, "peer"));
      span.kind = static_cast<std::uint32_t>(get_num(line, "kind"));
      span.id = get_num(line, "id");
      span.arg = get_num(line, "arg");
      out->spans.push_back(span);
      continue;
    }
    const auto name_it = event_by_name().find(type_name);
    if (name_it == event_by_name().end()) {
      *error = line_error(lineno, "unknown event type '" + type_name + "'");
      return false;
    }
    TraceEvent event;
    event.type = name_it->second;
    event.time = get_num(line, "t");
    event.node = static_cast<std::uint32_t>(get_num(line, "node"));
    event.peer = static_cast<std::uint32_t>(get_num(line, "peer"));
    event.kind = static_cast<std::uint32_t>(get_num(line, "kind"));
    event.id = get_num(line, "id");
    event.arg = get_num(line, "arg");
    out->events.push_back(event);
  }
  return true;
}

std::string truncation_reason(const TraceFile& trace, bool require_header) {
  if (!trace.has_header) {
    if (require_header) {
      return "trace has no header line: drop accounting unknown, cannot prove "
             "the window is complete";
    }
    return "";
  }
  if (trace.events_dropped != 0 || trace.spans_dropped != 0) {
    std::ostringstream out;
    out << "trace is truncated: the sink dropped " << trace.events_dropped
        << " events and " << trace.spans_dropped
        << " spans (size the RingBufferSink to the run)";
    return out.str();
  }
  return "";
}

bool build_forest(const TraceFile& trace, Forest* out, std::string* error) {
  out->traces.clear();
  std::map<std::uint64_t, SpanTree> by_trace;
  for (const Span& span : trace.spans) {
    if (span.trace_id == 0) {
      *error = "span with trace id 0 (the reserved 'no trace' id)";
      return false;
    }
    if (span.end < span.begin) {
      std::ostringstream why;
      why << "span " << span.span_id << " of trace " << span.trace_id
          << " ends at " << span.end << " before it begins at " << span.begin;
      *error = why.str();
      return false;
    }
    SpanTree& tree = by_trace[span.trace_id];
    tree.trace_id = span.trace_id;
    if (span.parent_span == 0) {
      if (span.type != SpanType::kMOp) {
        std::ostringstream why;
        why << "span " << span.span_id << " of trace " << span.trace_id
            << " has no parent but is not the root mop span";
        *error = why.str();
        return false;
      }
      if (tree.root.has_value()) {
        std::ostringstream why;
        why << "trace " << span.trace_id << " has two root spans ("
            << tree.root->span_id << " and " << span.span_id << ")";
        *error = why.str();
        return false;
      }
      tree.root = span;
    }
    tree.spans.push_back(span);
  }

  for (const auto& [trace_id, tree] : by_trace) {
    std::set<std::uint64_t> ids;
    for (const Span& span : tree.spans) {
      if (!ids.insert(span.span_id).second) {
        std::ostringstream why;
        why << "trace " << trace_id << " has two spans with id "
            << span.span_id;
        *error = why.str();
        return false;
      }
    }
    // Every parent must resolve inside the trace. A rootless trace (the
    // m-operation never completed, so its mop span was never emitted)
    // may dangle — but only from the one never-emitted root id.
    std::set<std::uint64_t> unresolved;
    for (const Span& span : tree.spans) {
      if (span.parent_span != 0 && ids.count(span.parent_span) == 0) {
        unresolved.insert(span.parent_span);
      }
    }
    if (tree.root.has_value() && !unresolved.empty()) {
      std::ostringstream why;
      why << "trace " << trace_id << ": parent span " << *unresolved.begin()
          << " was never emitted";
      *error = why.str();
      return false;
    }
    if (unresolved.size() > 1) {
      std::ostringstream why;
      why << "rootless trace " << trace_id << " dangles from "
          << unresolved.size() << " distinct unknown parents";
      *error = why.str();
      return false;
    }
  }

  out->traces.reserve(by_trace.size());
  for (auto& [trace_id, tree] : by_trace) {
    out->traces.push_back(std::move(tree));
  }
  return true;
}

std::vector<MOpLatency> attribute_latency(const Forest& forest) {
  std::vector<MOpLatency> out;
  for (const SpanTree& tree : forest.traces) {
    if (!tree.root.has_value()) continue;  // nothing to attribute
    const Span& root = *tree.root;
    MOpLatency entry;
    entry.trace_id = tree.trace_id;
    entry.mop_id = root.id;
    entry.process = root.node;
    entry.invoke = root.begin;
    entry.respond = root.end;
    entry.is_update = (root.arg & 1) != 0;
    if ((root.arg >> 1) != 0) entry.ww_seq = (root.arg >> 1) - 1;

    // Breakpoint sweep over the root window: every segment is charged to
    // the highest-priority non-root span covering it; uncovered time is
    // queueing. Integer endpoints, so the four phases sum exactly.
    std::vector<std::uint64_t> cuts;
    cuts.push_back(root.begin);
    cuts.push_back(root.end);
    for (const Span& span : tree.spans) {
      if (span.parent_span == 0) continue;
      const std::uint64_t b = std::max(span.begin, root.begin);
      const std::uint64_t e = std::min(span.end, root.end);
      if (b >= e) continue;
      cuts.push_back(b);
      cuts.push_back(e);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const std::uint64_t b = cuts[i];
      const std::uint64_t e = cuts[i + 1];
      int best = 0;  // 0 queue < 1 net < 2 agree < 3 lock
      for (const Span& span : tree.spans) {
        if (span.parent_span == 0) continue;
        if (span.begin > b || span.end < e) continue;
        int priority = 0;
        switch (span.type) {
          case SpanType::kLockWait: priority = 3; break;
          case SpanType::kAbcastAgree: priority = 2; break;
          case SpanType::kNetHop:
          case SpanType::kRetransmit: priority = 1; break;
          case SpanType::kMOp: priority = 0; break;
        }
        best = std::max(best, priority);
      }
      const std::uint64_t width = e - b;
      switch (best) {
        case 3: entry.phases.lock += width; break;
        case 2: entry.phases.agree += width; break;
        case 1: entry.phases.net += width; break;
        default: entry.phases.queue += width; break;
      }
    }
    out.push_back(entry);
  }
  return out;
}

void write_perfetto_json(std::ostream& out, const TraceFile& trace) {
  JsonWriter json(out, /*pretty=*/true);
  json.begin_object();
  json.key("traceEvents");
  json.begin_array();
  for (const TraceEvent& event : trace.events) {
    json.begin_object();
    json.field("name", to_string(event.type));
    json.field("cat", std::string_view("event"));
    json.field("ph", std::string_view("i"));
    json.field("s", std::string_view("g"));
    json.field("ts", event.time);
    json.field("pid", std::uint64_t{0});
    json.field("tid", event.node);
    json.key("args");
    json.begin_object();
    json.field("peer", event.peer);
    json.field("kind", event.kind);
    json.field("id", event.id);
    json.field("arg", event.arg);
    json.end_object();
    json.end_object();
  }
  for (const Span& span : trace.spans) {
    json.begin_object();
    json.field("name", to_string(span.type));
    json.field("cat", std::string_view("span"));
    json.field("ph", std::string_view("X"));
    json.field("ts", span.begin);
    json.field("dur", span.end - span.begin);
    json.field("pid", span.trace_id);
    json.field("tid", span.node);
    json.key("args");
    json.begin_object();
    json.field("sid", span.span_id);
    json.field("parent", span.parent_span);
    json.field("peer", span.peer);
    json.field("kind", span.kind);
    json.field("id", span.id);
    json.field("arg", span.arg);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
}

RebuiltExecution rebuild_execution(const TraceFile& trace,
                                   std::size_t num_processes,
                                   std::size_t num_objects) {
  RebuiltExecution result;

  std::map<std::uint64_t, const Span*> roots;
  for (const Span& span : trace.spans) {
    if (span.type != SpanType::kMOp) continue;
    if (!roots.emplace(span.id, &span).second) {
      std::ostringstream why;
      why << "two mop spans claim m-operation id " << span.id;
      result.error = why.str();
      return result;
    }
  }
  const std::size_t n = roots.size();
  if (n != 0 && (roots.begin()->first != 0 || roots.rbegin()->first != n - 1)) {
    result.error =
        "m-operation ids are not dense 0..n-1 (the trace window lost "
        "completions)";
    return result;
  }

  std::map<std::uint64_t, std::vector<core::Operation>> ops_by_id;
  for (const TraceEvent& event : trace.events) {
    if (event.type == TraceEventType::kOpRead) {
      ops_by_id[event.id].push_back(core::Operation::read(
          event.kind, static_cast<core::Value>(static_cast<std::int64_t>(event.arg)),
          event.peer));
    } else if (event.type == TraceEventType::kOpWrite) {
      ops_by_id[event.id].push_back(core::Operation::write(
          event.kind,
          static_cast<core::Value>(static_cast<std::int64_t>(event.arg))));
    }
  }

  if (num_processes == 0) {
    for (const auto& [id, span] : roots) {
      num_processes = std::max(num_processes, std::size_t{span->node} + 1);
    }
    if (num_processes == 0) num_processes = 1;
  }
  if (num_objects == 0) {
    for (const auto& [id, ops] : ops_by_id) {
      for (const core::Operation& op : ops) {
        num_objects = std::max(num_objects, std::size_t{op.object} + 1);
      }
    }
    if (num_objects == 0) num_objects = 1;
  }

  // Pre-validate everything History::add would assert on, so a corrupt
  // trace yields an error string instead of an abort.
  std::map<std::uint32_t, std::uint64_t> last_response;
  for (const auto& [id, span] : roots) {
    if (span->node >= num_processes) {
      std::ostringstream why;
      why << "m-operation " << id << " ran on process " << span->node
          << " but the system has " << num_processes;
      result.error = why.str();
      return result;
    }
    const auto last = last_response.find(span->node);
    if (last != last_response.end() && last->second > span->begin) {
      std::ostringstream why;
      why << "process " << span->node
          << " subhistory not sequential at m-operation " << id;
      result.error = why.str();
      return result;
    }
    last_response[span->node] = span->end;
    const auto ops_it = ops_by_id.find(id);
    if (ops_it != ops_by_id.end()) {
      for (const core::Operation& op : ops_it->second) {
        if (op.object >= num_objects) {
          std::ostringstream why;
          why << "m-operation " << id << " touches object " << op.object
              << " but the system has " << num_objects;
          result.error = why.str();
          return result;
        }
      }
    }
  }

  core::History history(num_processes, num_objects);
  for (const auto& [id, span] : roots) {
    std::vector<core::Operation> ops;
    if (const auto ops_it = ops_by_id.find(id); ops_it != ops_by_id.end()) {
      ops = ops_it->second;
    }
    history.add(core::MOperation(span->node, std::move(ops), span->begin, span->end));
    result.ww_ranks.push_back((span->arg >> 1) != 0
                                  ? std::optional<std::uint64_t>((span->arg >> 1) - 1)
                                  : std::nullopt);
  }
  result.history = std::move(history);
  return result;
}

TraceAudit audit_from_trace(const TraceFile& trace, core::Condition condition,
                            std::uint64_t exact_budget) {
  TraceAudit audit;
  const RebuiltExecution rebuilt =
      rebuild_execution(trace, /*num_processes=*/0, /*num_objects=*/0);
  if (!rebuilt.history.has_value()) {
    audit.detail = rebuilt.error;
    return audit;
  }
  audit.mops = rebuilt.history->size();
  core::Verdict verdict =
      core::check_history(*rebuilt.history, condition, rebuilt.ww_ranks, exact_budget);
  audit.ok = !verdict.violation();
  audit.detail = std::move(verdict.detail);
  audit.fast = std::move(verdict.fast);
  return audit;
}

}  // namespace mocc::obs
