// The incremental Theorem-7 check (stream_check.hpp; DESIGN.md §7).
#include "core/stream_check.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <sstream>

#include "core/fast_check.hpp"

namespace mocc::core {

namespace {

std::string name(std::uint64_t key) {
  if (key == StreamOp::kInitialWriter) return "init";
  std::string out = "m";
  out += std::to_string(key);
  return out;
}

template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::ostringstream out;
  (out << ... << parts);
  return out.str();
}

/// The first element of sorted `v` whose first member is above `key`.
template <typename V, typename K>
auto above(V& v, const K& key) {
  return std::upper_bound(v.begin(), v.end(), key,
                          [](const K& k, const auto& element) { return k < element.first; });
}

}  // namespace

bool StreamCheck::Seen::insert(std::uint64_t key) {
  if (key == below_ && above_.empty()) return ++below_, true;
  const auto at = std::lower_bound(above_.begin(), above_.end(), key);
  if (key < below_ || (at != above_.end() && *at == key)) return false;
  above_.insert(at, key);
  raise(below_);
  return true;
}

bool StreamCheck::Seen::contains(std::uint64_t key) const {
  return key < below_ || std::binary_search(above_.begin(), above_.end(), key);
}

void StreamCheck::Seen::raise(std::uint64_t bound) {
  if (bound <= below_ && (above_.empty() || above_.front() != below_)) return;
  below_ = std::max(below_, bound);
  auto first = std::lower_bound(above_.begin(), above_.end(), below_);
  while (first != above_.end() && *first == below_) ++first, ++below_;
  above_.erase(above_.begin(), first);
}

StreamCheck::Ord StreamCheck::Frontier::before(Time t) const {
  const auto it = std::lower_bound(steps_.begin(), steps_.end(), std::pair{t, Ord{0}});
  return it == steps_.begin() ? base_ : std::prev(it)->second;
}

void StreamCheck::Frontier::add(Time respond, Ord hi) {
  auto it = above(steps_, respond);
  if (hi <= (it == steps_.begin() ? base_ : std::prev(it)->second)) return;
  auto last = it;
  while (last != steps_.end() && last->second <= hi) ++last;
  if (it != steps_.begin() && std::prev(it)->first == respond) {
    std::prev(it)->second = hi;
    steps_.erase(it, last);
  } else {
    steps_.insert(steps_.erase(it, last), {respond, hi});
  }
}

void StreamCheck::Frontier::prune(Time floor) {
  const auto it = std::lower_bound(steps_.begin(), steps_.end(), std::pair{floor, Ord{0}});
  if (it == steps_.begin()) return;
  base_ = std::max(base_, std::prev(it)->second);
  steps_.erase(steps_.begin(), it);
}

void StreamCheck::violate(std::string why) {
  if (outcome_ == Outcome::kViolation) return;
  outcome_ = Outcome::kViolation;
  detail_ = std::move(why);
}

void StreamCheck::undecided(std::string why) {
  stopped_ = true;  // what follows cannot be judged soundly
  if (outcome_ != Outcome::kOk) return;
  outcome_ = Outcome::kUndecided;
  detail_ = std::move(why);
}

std::size_t StreamCheck::retained() const {
  std::size_t out = frontier_.size() + in_flight_.size() + keys_.size() + ranks_.size();
  for (const Object& o : objects_) out += o.writers.size() + o.open.size() + o.frontier.size();
  return out;
}

void StreamCheck::invoked(std::uint64_t key, Time time) {
  const std::pair entry{time, key};
  if (halted() || keys_.contains(key) ||
      std::find(in_flight_.begin(), in_flight_.end(), entry) != in_flight_.end()) {
    return;
  }
  announced_ = true;
  last_invoke_ = std::max(last_invoke_, time);
  in_flight_.insert(std::upper_bound(in_flight_.begin(), in_flight_.end(), entry), entry);
}

void StreamCheck::completed(const StreamMop& mop) {
  if (halted()) return;
  const auto flying = std::find_if(in_flight_.begin(), in_flight_.end(),
                                   [&mop](const auto& f) { return f.second == mop.key; });
  const bool announced = flying != in_flight_.end();
  if (announced) in_flight_.erase(flying);
  arrive(mop, announced);
  settle();
  if (halted() || !announced_) return;
  // Whatever is undecided — waiting, in flight, not invoked yet — is
  // invoked no earlier than this floor: older frontier steps fold into
  // the base, and a later rank at or below the bound is a cycle.
  Time floor = last_invoke_;
  if (!in_flight_.empty()) floor = std::min(floor, in_flight_.front().first);
  if (!pending_.empty()) floor = std::min(floor, nodes_[pending_.front()].invoke);
  pruned_to_ = std::max(pruned_to_, floor);
  if (options_.condition == Condition::kMLinearizability) frontier_.prune(pruned_to_);
  ranks_.raise(bound(Object{}));
}

void StreamCheck::arrive(const StreamMop& mop, bool announced) {
  if (halted()) return;
  if (!keys_.insert(mop.key)) return violate(cat("two m-operations carry key ", mop.key));
  if (mop.invoke > mop.respond) return violate(cat(name(mop.key), " responds before invoked"));
  if (!announced && mop.invoke < pruned_to_) {
    return undecided(cat(name(mop.key), " arrives unannounced after its state was released"));
  }
  if (options_.processes != 0 && mop.process >= options_.processes) {
    return undecided(cat(name(mop.key), " runs on process ", mop.process, " of ",
                         options_.processes));
  }
  if (processes_.size() <= mop.process) processes_.resize(mop.process + 1);
  auto index = static_cast<std::uint32_t>(nodes_.size());
  if (free_nodes_.empty()) {
    nodes_.emplace_back();
  } else {
    index = free_nodes_.back();
    free_nodes_.pop_back();
  }
  Node& u = nodes_[index];
  u.key = mop.key;
  u.process = mop.process;
  u.invoke = mop.invoke;
  u.respond = mop.respond;
  u.ord = mop.ww.has_value() ? *mop.ww + 1 : 0;
  u.hi = 0;
  u.settled = false;
  u.lists = 0;
  u.reads.clear();
  u.writes.clear();
  u.objects.clear();
  for (const StreamOp& op : mop.ops) {
    if (options_.condition == Condition::kMNormality) u.objects.push_back(op.object);
    const auto written = std::find_if(u.writes.begin(), u.writes.end(),
                                      [&op](const auto& w) { return w.first == op.object; });
    if (op.type == OpType::kRead) {
      if (written == u.writes.end()) u.reads.push_back(op);  // external
    } else if (written == u.writes.end()) {
      u.writes.emplace_back(op.object, op.value);
    } else {
      written->second = op.value;  // only the final write is visible
    }
  }
  std::sort(u.objects.begin(), u.objects.end());
  u.objects.erase(std::unique(u.objects.begin(), u.objects.end()), u.objects.end());
  if (u.ord != 0 && !ranks_.insert(u.ord - 1)) {
    return violate(cat("two m-operations claim ww rank ", u.ord - 1, " (", name(u.key), ")"));
  }
  if (u.ord == 0 && !u.writes.empty()) {
    return undecided(cat(name(u.key), " writes without a ww rank"));
  }
  for (const auto& [x, value] : u.writes) {
    Object& o = object(x);
    prune_object(o);
    // A writer ranked inside an interval a decided read of x left open
    // overwrites that read first.
    const auto open = std::partition_point(o.open.begin(), o.open.end(),
                                           [&u](const auto& i) { return i.second < u.ord; });
    if (open != o.open.end() && open->first < u.ord) {
      return violate(cat(name(u.key), " writes x", x, " at ww rank ", u.ord - 1,
                         ", inside the interval a decided read of x", x, " left open"));
    }
    o.writers.insert(above(o.writers, u.ord), {u.ord, index});
    ++u.lists;
  }
  const auto later = std::partition_point(pending_.begin(), pending_.end(), [&](auto i) {
    return std::pair{nodes_[i].invoke, nodes_[i].key} <= std::pair{u.invoke, u.key};
  });
  pending_.insert(later, index);
}

StreamCheck::Object& StreamCheck::object(ObjectId x) {
  if (objects_.size() <= x) objects_.resize(static_cast<std::size_t>(x) + 1);
  return objects_[x];
}

StreamCheck::Node* StreamCheck::writer_of(ObjectId x, std::uint64_t key) {
  if (x >= objects_.size()) return nullptr;
  for (auto it = objects_[x].writers.rbegin(); it != objects_[x].writers.rend(); ++it) {
    if (nodes_[it->second].key == key) return &nodes_[it->second];
  }
  return nullptr;
}

bool StreamCheck::reads_ready(const Node& u, bool& external) {
  // u is judged once all its writers have arrived; a truncated stream
  // leaves it undecided.
  for (const StreamOp& read : u.reads) {
    if (read.writer != StreamOp::kInitialWriter && !keys_.contains(read.writer)) {
      return !(external = true);
    }
  }
  bool ready = true;
  for (const StreamOp& read : u.reads) {
    if (read.writer == StreamOp::kInitialWriter) continue;
    const Node* w = writer_of(read.object, read.writer);
    if (w == nullptr) {
      violate(cat(name(u.key), " reads x", read.object, " from ", name(read.writer),
                  ", which never writes it or was overwritten before every undecided m-operation"));
      return false;
    }
    ready = ready && w->settled;
  }
  return ready;
}

void StreamCheck::settle() {
  // A pass repeats only when an m-operation settled after one it skipped.
  for (bool retry = true; retry && !halted();) {
    retry = false;
    ++pass_;
    bool external = false;  // something waits on what has not arrived
    Time rt_min = std::numeric_limits<Time>::max();  // earliest response skipped
    skipped_.clear();
    std::size_t kept = 0;
    std::size_t i = 0;
    for (; i < pending_.size(); ++i) {
      const std::uint32_t index = pending_[i];
      Node& u = nodes_[index];
      // Anything invoked earlier and still in flight may precede u.
      if (!in_flight_.empty() && in_flight_.front() < std::pair{u.invoke, u.key}) {
        external = true;
        break;
      }
      // Its process-order and real-time predecessors, then its writers.
      Process& p = processes_[u.process];
      bool ready = p.blocked_pass != pass_;
      if (options_.condition == Condition::kMLinearizability) ready = ready && rt_min >= u.invoke;
      for (const auto& [x, respond] : skipped_) {
        ready = ready && !(respond < u.invoke &&
                           std::binary_search(u.objects.begin(), u.objects.end(), x));
      }
      ready = ready && reads_ready(u, external);
      if (halted()) return;
      if (ready) {
        settle_one(u, index);
        retry = retry || kept != 0;
        continue;
      }
      pending_[kept++] = index;
      p.blocked_pass = pass_;
      rt_min = std::min(rt_min, u.respond);
      for (const ObjectId x : u.objects) skipped_.emplace_back(x, u.respond);
    }
    pending_.erase(std::move(pending_.begin() + static_cast<std::ptrdiff_t>(i), pending_.end(),
                             pending_.begin() + static_cast<std::ptrdiff_t>(kept)),
                   pending_.end());
    if (!retry && !pending_.empty() && !external) {
      violate(cat(kCyclicBaseOrder, ": ", name(nodes_[pending_.front()].key),
                  " waits on m-operations that wait on it"));
    }
  }
}

void StreamCheck::settle_one(Node& u, std::uint32_t index) {
  Process& p = processes_[u.process];
  if (p.last_respond > u.invoke) {
    return violate(cat("process ", u.process, " subhistory not sequential at ", name(u.key)));
  }
  Ord hi = p.last_hi;
  if (options_.condition == Condition::kMLinearizability) {
    hi = std::max(hi, frontier_.before(u.invoke));
  }
  for (const ObjectId x : u.objects) hi = std::max(hi, object(x).frontier.before(u.invoke));
  from_.clear();
  for (const StreamOp& read : u.reads) {
    Value stored = 0;  // the initializing write's
    const Node* w = nullptr;
    if (read.writer != StreamOp::kInitialWriter) {
      w = writer_of(read.object, read.writer);
      stored = std::find_if(w->writes.begin(), w->writes.end(), [&read](const auto& write) {
                 return write.first == read.object;
               })->second;
      hi = std::max(hi, w->hi);
    }
    if (stored != read.value) {
      return violate(cat(name(u.key), " reads x", read.object, " = ", read.value, " from ",
                         name(read.writer), ", whose final write stores ", stored));
    }
    from_.push_back(w);
  }
  if (u.ord != 0) {
    if (hi >= u.ord) {
      return violate(cat(kCyclicBaseOrder, ": a predecessor of ", name(u.key),
                         " carries a ww rank not below its own"));
    }
    hi = u.ord;
  }
  // Lemma 6: no other x-writer ranks in (rank(β), hi(u)].
  for (std::size_t r = 0; r < u.reads.size(); ++r) {
    const StreamOp& read = u.reads[r];
    const Ord lo = from_[r] == nullptr ? 0 : from_[r]->ord;
    const auto& writers = object(read.object).writers;
    for (auto it = above(writers, lo); it != writers.end() && it->first <= hi; ++it) {
      if (it->second == index) continue;
      const std::string gamma = name(nodes_[it->second].key);
      return violate(cat(name(u.key), " reads x", read.object, " from ", name(read.writer),
                         ", but ", gamma, " writes x", read.object, " and ",
                         name(read.writer), " ~> ", gamma, " ~> ", name(u.key)));
    }
    if (hi > lo) record_read(read.object, lo, hi);
  }
  u.hi = hi;
  u.settled = true;
  p.last_respond = u.respond;
  p.last_hi = hi;
  if (options_.condition == Condition::kMLinearizability) frontier_.add(u.respond, hi);
  for (const ObjectId x : u.objects) object(x).frontier.add(u.respond, hi);
  if (u.lists == 0) free_nodes_.push_back(index);
}

void StreamCheck::record_read(ObjectId x, Ord lo, Ord hi) {
  Object& o = object(x);
  prune_object(o);
  if (hi <= bound(o)) return;  // every later x-writer ranks above hi
  auto first = std::partition_point(o.open.begin(), o.open.end(),
                                    [lo](const auto& i) { return i.second < lo; });
  auto last = first;
  for (; last != o.open.end() && last->first <= hi; ++last) {
    lo = std::min(lo, last->first);
    hi = std::max(hi, last->second);
  }
  if (first == last) {
    o.open.insert(first, {lo, hi});
  } else {
    *first = {lo, hi};
    o.open.erase(std::next(first), last);
  }
}

StreamCheck::Ord StreamCheck::bound(const Object& o) const {
  if (options_.condition == Condition::kMLinearizability) return frontier_.base();
  // Each process's next m-operation reaches its last hi.
  Ord lowest = options_.processes == 0 ? 0 : std::numeric_limits<Ord>::max();
  for (std::size_t p = 0; p < options_.processes; ++p) {
    lowest = std::min(lowest, p < processes_.size() ? processes_[p].last_hi : 0);
  }
  return std::max(lowest, o.frontier.base());
}

void StreamCheck::prune_object(Object& o) {
  if (options_.condition == Condition::kMNormality) o.frontier.prune(pruned_to_);
  const Ord floor = bound(o);
  if (floor == o.pruned_at) return;
  o.pruned_at = floor;
  o.open.erase(o.open.begin(), std::partition_point(o.open.begin(), o.open.end(), [floor](
                                                        const auto& i) { return i.second <= floor; }));
  // Every later read of x reaches the floor, so it reads the last writer
  // at or below it or a later one: settled writers before that one go.
  const auto top = above(o.writers, floor);
  if (top - o.writers.begin() <= 1) return;
  auto out = o.writers.begin();
  for (auto w = o.writers.begin(); w != std::prev(top); ++w) {
    Node& n = nodes_[w->second];
    if (!n.settled) {
      *out++ = *w;  // doomed: its predecessors rank above it
    } else if (--n.lists == 0) {
      free_nodes_.push_back(w->second);
    }
  }
  o.writers.erase(std::move(std::prev(top), o.writers.end(), out), o.writers.end());
}

void StreamCheck::finish() {
  if (finished_ || halted()) return;
  finished_ = true;
  in_flight_.clear();
  settle();
  for (const std::uint32_t index : pending_) {
    for (const StreamOp& read : nodes_[index].reads) {
      if (read.writer == StreamOp::kInitialWriter || keys_.contains(read.writer)) continue;
      return undecided(cat(name(nodes_[index].key), " reads x", read.object, " from ",
                           name(read.writer), ", which never completed"));
    }
  }
}

}  // namespace mocc::core
