// Differential suite for the windowless streaming verdict
// (obs::StreamingAuditor over core::StreamCheck) against the post-hoc
// verdicts of the same execution: obs::audit_from_trace and
// core::check_history on the trace's rebuilt History, check_history on
// the recorder's History for the uncorrupted runs, and — on ranked
// histories of at most 250 m-operations — the dense fast_check_condition
// behind check_history's well-formedness, value-coherence and
// distinct-rank steps.
//
// The corpus is simulated runs of mseq, mlin, mlin-narrow and mlin-bcastq
// over the sequencer and ISIS broadcasts, and of locking and aggregate
// (ranked by lock point), with the reliable link and drops off and on,
// over several seeds, plus skip-delivery and early-release mutants;
// each run's trace is judged under m-sequential consistency,
// m-linearizability and m-normality. Each trace is also replayed
// corrupted through on_event / on_span: a read redirected to another
// writer, a read value and a written value bumped, two ranks swapped, a
// rank duplicated, a writer's span held back past its readers, a read
// naming a writer invoked after its reader responded, and a writer
// completing after a reader with a rank inside that read's interval. The
// three outcomes (ok, violation, undecided) must agree exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "api/system.hpp"
#include "core/fast_check.hpp"
#include "core/verdict.hpp"
#include "obs/analysis.hpp"
#include "obs/live.hpp"
#include "obs/trace.hpp"
#include "protocols/workload.hpp"
#include "util/rng.hpp"

// The sanitizer builds judge two seeds per shape: their job here is the
// memory and race sweep.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MOCC_DIFF_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MOCC_DIFF_TEST_SANITIZED 1
#endif
#endif
#ifndef MOCC_DIFF_TEST_SANITIZED
#define MOCC_DIFF_TEST_SANITIZED 0
#endif

namespace mocc::obs {
namespace {

using core::Condition;
using core::Outcome;

constexpr std::uint64_t kBudget = 200'000;
constexpr std::size_t kDenseLimit = 250;

/// The trace in emission order, events and spans interleaved.
struct Entry {
  bool is_span = false;
  TraceEvent event;
  Span span;
};

class Tape final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override { entries.push_back({false, event, {}}); }
  void on_span(const Span& span) override { entries.push_back({true, {}, span}); }
  std::vector<Entry> entries;
};

bool is_mop(const Entry& e) { return e.is_span && e.span.type == SpanType::kMOp && e.span.parent_span == 0; }
bool is_read(const Entry& e) { return !e.is_span && e.event.type == TraceEventType::kOpRead; }
bool is_write(const Entry& e) { return !e.is_span && e.event.type == TraceEventType::kOpWrite; }
std::uint64_t rank_field(const Span& s) { return s.arg >> 1; }  ///< rank + 1, 0 for none

Outcome streamed(const std::vector<Entry>& tape, Condition condition, std::size_t processes) {
  StreamingAuditorOptions options;
  options.condition = condition;
  options.processes = processes;
  StreamingAuditor auditor(options);
  for (const Entry& e : tape) {
    if (e.is_span) {
      auditor.on_span(e.span);
    } else {
      auditor.on_event(e.event);
    }
  }
  switch (auditor.finish().verdict) {
    case StreamVerdict::kOk:
      return Outcome::kOk;
    case StreamVerdict::kViolation:
      return Outcome::kViolation;
    case StreamVerdict::kInconclusive:
      break;
  }
  return Outcome::kUndecided;
}

struct Oracle {
  Outcome outcome = Outcome::kOk;
  bool posthoc_ok = true;           ///< audit_from_trace
  std::optional<bool> dense_ok;     ///< ranked histories of at most kDenseLimit
  std::string detail;
};

Oracle judge(const std::vector<Entry>& tape, Condition condition) {
  TraceFile file;
  file.has_header = true;
  for (const Entry& e : tape) {
    if (e.is_span) {
      file.spans.push_back(e.span);
    } else {
      file.events.push_back(e.event);
    }
  }
  Oracle out;
  out.posthoc_ok = audit_from_trace(file, condition, kBudget).ok;
  const RebuiltExecution rebuilt = rebuild_execution(file, 0, 0);
  if (!rebuilt.history.has_value()) {
    out.outcome = Outcome::kViolation;
    out.detail = rebuilt.error;
    return out;
  }
  const core::History& h = *rebuilt.history;
  core::Verdict verdict = core::check_history(h, condition, rebuilt.ww_ranks, kBudget);
  out.outcome = verdict.outcome;
  out.detail = std::move(verdict.detail);
  const bool ranked = std::any_of(rebuilt.ww_ranks.begin(), rebuilt.ww_ranks.end(),
                                  [](const auto& r) { return r.has_value(); });
  if (ranked && h.size() <= kDenseLimit) {
    // check_history's steps, with the dense relations for its last one.
    std::vector<std::uint64_t> ranks;
    for (const auto& r : rebuilt.ww_ranks) {
      if (r.has_value()) ranks.push_back(*r);
    }
    std::sort(ranks.begin(), ranks.end());
    const bool distinct = std::adjacent_find(ranks.begin(), ranks.end()) == ranks.end();
    const core::FastCheckResult dense =
        core::fast_check_condition(h, condition, rebuilt.ww_ranks, core::Constraint::kWW);
    out.dense_ok = h.well_formed() && h.value_coherent() && distinct &&
                   dense.constraint_holds && dense.legal && dense.admissible;
  }
  return out;
}

// ------------------------------------------------------------ corruptions

/// Final value m-operation `id` writes to `object`, if it writes it.
std::optional<std::int64_t> final_write(const std::vector<Entry>& tape, std::uint64_t id,
                                        std::uint32_t object) {
  std::optional<std::int64_t> value;
  for (const Entry& e : tape) {
    if (is_write(e) && e.event.id == id && e.event.kind == object) {
      value = static_cast<std::int64_t>(e.event.arg);
    }
  }
  return value;
}

const Span* mop_span(const std::vector<Entry>& tape, std::uint64_t id) {
  for (const Entry& e : tape) {
    if (is_mop(e) && e.span.id == id) return &e.span;
  }
  return nullptr;
}

/// Indices of reads that name another m-operation's write.
std::vector<std::size_t> external_reads(const std::vector<Entry>& tape) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    const TraceEvent& e = tape[i].event;
    if (!is_read(tape[i]) || e.peer == e.id) continue;
    // A read after an own write of its object is internal.
    bool internal = false;
    for (std::size_t j = i; j-- > 0 && !internal;) {
      internal = is_write(tape[j]) && tape[j].event.id == e.id && tape[j].event.kind == e.kind;
    }
    if (!internal) out.push_back(i);
  }
  return out;
}

/// Ids of m-operations that write `object`.
std::vector<std::uint64_t> writers_of(const std::vector<Entry>& tape, std::uint32_t object) {
  std::vector<std::uint64_t> out;
  for (const Entry& e : tape) {
    if (is_write(e) && e.event.kind == object &&
        std::find(out.begin(), out.end(), e.event.id) == out.end()) {
      out.push_back(e.event.id);
    }
  }
  return out;
}

std::vector<std::size_t> ranked_spans(const std::vector<Entry>& tape) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    if (is_mop(tape[i]) && rank_field(tape[i].span) != 0) out.push_back(i);
  }
  return out;
}

template <typename T>
const T& pick(const std::vector<T>& from, util::Rng& rng) {
  return from[rng.next_below(from.size())];
}

using Corruption = std::optional<std::vector<Entry>> (*)(std::vector<Entry>, util::Rng&);

std::optional<std::vector<Entry>> redirect_read(std::vector<Entry> tape, util::Rng& rng) {
  const std::vector<std::size_t> reads = external_reads(tape);
  for (int attempt = 0; attempt < 8 && !reads.empty(); ++attempt) {
    TraceEvent& read = tape[pick(reads, rng)].event;
    std::vector<std::uint64_t> others = writers_of(tape, read.kind);
    std::erase_if(others, [&](std::uint64_t w) { return w == read.peer || w == read.id; });
    if (others.empty()) continue;
    const std::uint64_t writer = pick(others, rng);
    read.peer = static_cast<std::uint32_t>(writer);
    read.arg = static_cast<std::uint64_t>(*final_write(tape, writer, read.kind));
    return tape;
  }
  return std::nullopt;
}

std::optional<std::vector<Entry>> bump_read(std::vector<Entry> tape, util::Rng& rng) {
  const std::vector<std::size_t> reads = external_reads(tape);
  if (reads.empty()) return std::nullopt;
  ++tape[pick(reads, rng)].event.arg;
  return tape;
}

std::optional<std::vector<Entry>> bump_write(std::vector<Entry> tape, util::Rng& rng) {
  std::vector<std::size_t> writes;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    if (is_write(tape[i])) writes.push_back(i);
  }
  if (writes.empty()) return std::nullopt;
  ++tape[pick(writes, rng)].event.arg;
  return tape;
}

std::optional<std::vector<Entry>> swap_ranks(std::vector<Entry> tape, util::Rng& rng) {
  const std::vector<std::size_t> ranked = ranked_spans(tape);
  if (ranked.size() < 2) return std::nullopt;
  const std::size_t a = pick(ranked, rng);
  std::size_t b = pick(ranked, rng);
  if (a == b) b = ranked[(std::find(ranked.begin(), ranked.end(), a) - ranked.begin() + 1) % ranked.size()];
  const std::uint64_t flag_a = tape[a].span.arg & 1;
  const std::uint64_t flag_b = tape[b].span.arg & 1;
  const std::uint64_t rank_a = tape[a].span.arg >> 1;
  tape[a].span.arg = ((tape[b].span.arg >> 1) << 1) | flag_a;
  tape[b].span.arg = (rank_a << 1) | flag_b;
  return tape;
}

std::optional<std::vector<Entry>> duplicate_rank(std::vector<Entry> tape, util::Rng& rng) {
  const std::vector<std::size_t> ranked = ranked_spans(tape);
  if (ranked.size() < 2) return std::nullopt;
  const std::size_t a = pick(ranked, rng);
  std::size_t b = pick(ranked, rng);
  if (a == b) b = ranked[(std::find(ranked.begin(), ranked.end(), a) - ranked.begin() + 1) % ranked.size()];
  tape[b].span.arg = (tape[a].span.arg & ~std::uint64_t{1}) | (tape[b].span.arg & 1);
  return tape;
}

std::optional<std::vector<Entry>> hold_writer_back(std::vector<Entry> tape, util::Rng& rng) {
  std::vector<std::size_t> candidates;  // writer span positions with a later-completing reader
  std::vector<std::size_t> last_reader;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    if (!is_mop(tape[i]) || (tape[i].span.arg & 1) == 0) continue;
    const std::uint64_t writer = tape[i].span.id;
    std::size_t last = 0;
    for (std::size_t j = i + 1; j < tape.size(); ++j) {
      if (!is_read(tape[j]) || tape[j].event.peer != writer || tape[j].event.id == writer) continue;
      for (std::size_t k = j; k < tape.size(); ++k) {
        if (is_mop(tape[k]) && tape[k].span.id == tape[j].event.id) {
          last = std::max(last, k);
          break;
        }
      }
    }
    if (last > i) {
      candidates.push_back(i);
      last_reader.push_back(last);
    }
  }
  if (candidates.empty()) return std::nullopt;
  const std::size_t which = rng.next_below(candidates.size());
  const Entry held = tape[candidates[which]];
  tape.insert(tape.begin() + static_cast<std::ptrdiff_t>(last_reader[which]) + 1, held);
  tape.erase(tape.begin() + static_cast<std::ptrdiff_t>(candidates[which]));
  return tape;
}

std::optional<std::vector<Entry>> writer_from_the_future(std::vector<Entry> tape,
                                                         util::Rng& rng) {
  const std::vector<std::size_t> reads = external_reads(tape);
  for (int attempt = 0; attempt < 16 && !reads.empty(); ++attempt) {
    TraceEvent& read = tape[pick(reads, rng)].event;
    const Span* reader = mop_span(tape, read.id);
    if (reader == nullptr) continue;
    std::vector<std::uint64_t> later;
    for (const std::uint64_t w : writers_of(tape, read.kind)) {
      const Span* writer = mop_span(tape, w);
      if (writer != nullptr && writer->begin > reader->end) later.push_back(w);
    }
    if (later.empty()) continue;
    const std::uint64_t writer = pick(later, rng);
    read.peer = static_cast<std::uint32_t>(writer);
    read.arg = static_cast<std::uint64_t>(*final_write(tape, writer, read.kind));
    return tape;
  }
  return std::nullopt;
}

/// Doubles every rank so that the odd ones are free, then gives an
/// x-writer invoked after a reader of x responded the odd rank just above
/// the reader's writer: a writer completing late inside the interval that
/// read left open.
std::optional<std::vector<Entry>> late_writer_rank(std::vector<Entry> tape, util::Rng& rng) {
  for (Entry& e : tape) {
    if (is_mop(e) && rank_field(e.span) != 0) {
      e.span.arg = ((2 * (rank_field(e.span) - 1) + 1) << 1) | (e.span.arg & 1);
    }
  }
  const std::vector<std::size_t> reads = external_reads(tape);
  for (int attempt = 0; attempt < 16 && !reads.empty(); ++attempt) {
    const TraceEvent& read = tape[pick(reads, rng)].event;
    const Span* reader = mop_span(tape, read.id);
    const Span* from = mop_span(tape, read.peer);
    if (reader == nullptr || from == nullptr || rank_field(*from) == 0) continue;
    for (Entry& e : tape) {
      if (!is_mop(e) || e.span.begin <= reader->end || rank_field(e.span) == 0 ||
          !final_write(tape, e.span.id, read.kind).has_value()) {
        continue;
      }
      e.span.arg = ((rank_field(*from) + 1) << 1) | (e.span.arg & 1);
      return tape;
    }
  }
  return std::nullopt;
}

struct Named {
  const char* name;
  Corruption corrupt;
};

constexpr Named kCorruptions[] = {
    {"redirect-read", redirect_read},   {"bump-read", bump_read},
    {"bump-write", bump_write},         {"swap-ranks", swap_ranks},
    {"duplicate-rank", duplicate_rank}, {"hold-writer-back", hold_writer_back},
    {"writer-from-the-future", writer_from_the_future}, {"late-writer-rank", late_writer_rank},
};

struct Counts {
  std::size_t traces = 0;
  std::size_t violations = 0;
  std::size_t undecided = 0;
  std::size_t dense = 0;
  std::size_t disagreements = 0;
};

void compare(const std::vector<Entry>& tape, Condition condition, std::size_t processes,
             const std::string& label, Counts& counts) {
  const Outcome live = streamed(tape, condition, processes);
  const Oracle oracle = judge(tape, condition);
  ++counts.traces;
  counts.violations += oracle.outcome == Outcome::kViolation ? 1 : 0;
  counts.undecided += oracle.outcome == Outcome::kUndecided ? 1 : 0;
  bool agree = live == oracle.outcome &&
               oracle.posthoc_ok == (oracle.outcome != Outcome::kViolation);
  if (oracle.dense_ok.has_value()) {
    ++counts.dense;
    agree = agree && *oracle.dense_ok == (oracle.outcome == Outcome::kOk);
  }
  if (!agree) {
    ++counts.disagreements;
    ADD_FAILURE() << label << " under " << core::condition_name(condition)
                  << ": streaming " << static_cast<int>(live) << ", check_history "
                  << static_cast<int>(oracle.outcome) << ", audit_from_trace "
                  << (oracle.posthoc_ok ? "ok" : "violation") << ", dense "
                  << (oracle.dense_ok.has_value() ? (*oracle.dense_ok ? "ok" : "violation")
                                                  : "-")
                  << " — " << oracle.detail;
  }
}

struct Shape {
  std::string protocol;
  std::string broadcast;
  bool faults = false;
  std::string mutation;
  std::size_t ops = 8;
};

api::SystemConfig config_of(const Shape& run, std::uint64_t seed) {
  api::SystemConfig config;
  config.protocol = run.protocol;
  config.broadcast = run.broadcast;
  config.num_processes = 3;
  config.num_objects = 4;
  config.delay = "lan";
  config.seed = seed;
  config.mutation = run.mutation;
  if (run.faults) {
    config.reliable_link = true;
    config.faults.seed = seed ^ 0x9e3779b97f4a7c15ULL;
    config.faults.default_link.drop_rate = 0.1;
    config.faults.default_link.duplicate_rate = 0.05;
  }
  return config;
}

TEST(StreamDifferential, ProtocolTracesAndTheirCorruptions) {
  std::vector<Shape> runs;
  for (const char* protocol : {"mseq", "mlin", "mlin-narrow", "mlin-bcastq"}) {
    for (const char* broadcast : {"sequencer", "isis"}) {
      for (const bool faults : {false, true}) {
        runs.push_back({protocol, broadcast, faults, "", 8});
      }
    }
  }
  runs.push_back({"mlin", "sequencer", false, "", 80});  // 240 m-ops, still dense-checked
  runs.push_back({"mseq", "isis", true, "", 80});
  runs.push_back({"mseq", "sequencer", false, "skip-delivery", 8});
  runs.push_back({"mlin", "isis", false, "skip-delivery", 8});
  runs.push_back({"mlin", "sequencer", true, "skip-delivery", 12});
  runs.push_back({"locking", "sequencer", false, "", 8});
  runs.push_back({"locking", "sequencer", true, "", 8});
  runs.push_back({"aggregate", "sequencer", true, "", 8});
  runs.push_back({"locking", "sequencer", false, "early-release", 8});

  Counts clean;
  Counts corrupted;
  std::map<std::string, std::size_t> applied;
  for (const Shape& run : runs) {
    for (std::uint64_t seed = 1; seed <= (MOCC_DIFF_TEST_SANITIZED ? 2 : 4); ++seed) {
      const api::SystemConfig config = config_of(run, seed);
      api::System system(config);
      Tape tape;
      system.set_trace_sink(&tape);
      protocols::WorkloadParams params;
      params.ops_per_process = run.ops;
      params.update_ratio = 0.5;
      params.footprint = 2;
      const protocols::WorkloadReport report = system.run_workload(params);
      system.set_trace_sink(nullptr);
      ASSERT_EQ(report.queries + report.updates, config.num_processes * run.ops);
      const std::string label = run.protocol + "/" + run.broadcast + (run.faults ? "/faults" : "") +
                                (run.mutation.empty() ? "" : "/" + run.mutation) + " seed " +
                                std::to_string(seed);

      for (const Condition condition :
           {Condition::kMSequentialConsistency, Condition::kMLinearizability,
            Condition::kMNormality}) {
        compare(tape.entries, condition, config.num_processes, label, clean);
        // The recorder's History gives the same verdict as its trace.
        const Outcome recorded = core::check_history(system.history(), condition,
                                                     system.recorder().ww_ranks(), kBudget)
                                     .outcome;
        if (recorded != streamed(tape.entries, condition, config.num_processes)) {
          ++clean.disagreements;
          ADD_FAILURE() << label << ": recorder History and stream disagree under "
                        << core::condition_name(condition);
        }
        util::Rng rng(seed * 1000 + static_cast<std::uint64_t>(condition));
        for (const Named& corruption : kCorruptions) {
          for (int copy = 0; copy < 2; ++copy) {
            const auto bad = corruption.corrupt(tape.entries, rng);
            if (!bad.has_value()) continue;
            ++applied[corruption.name];
            compare(*bad, condition, config.num_processes, label + " " + corruption.name,
                    corrupted);
          }
        }
      }
    }
  }
  std::cout << "stream differential: " << clean.traces << " traces (" << clean.violations
            << " violations, " << clean.undecided << " undecided, " << clean.dense
            << " dense-checked), " << corrupted.traces << " corrupted ("
            << corrupted.violations << " violations, " << corrupted.undecided
            << " undecided, " << corrupted.dense << " dense-checked); disagreements "
            << clean.disagreements + corrupted.disagreements << "\n";
  for (const auto& [name, count] : applied) std::cout << "  " << name << ": " << count << "\n";
  EXPECT_EQ(clean.disagreements + corrupted.disagreements, 0u);
  EXPECT_GT(corrupted.violations, 0u);
  for (const Named& corruption : kCorruptions) {
    EXPECT_GT(applied[corruption.name], 0u) << corruption.name << " never applied";
  }
}

}  // namespace
}  // namespace mocc::obs
