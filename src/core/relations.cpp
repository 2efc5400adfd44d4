#include "core/relations.hpp"

#include <algorithm>
#include <utility>

namespace mocc::core {

const char* condition_name(Condition c) {
  switch (c) {
    case Condition::kMSequentialConsistency: return "m-sequential-consistency";
    case Condition::kMLinearizability: return "m-linearizability";
    case Condition::kMNormality: return "m-normality";
  }
  return "?";
}

util::BitRelation process_order(const History& h) {
  util::BitRelation rel(h.size());
  for (ProcessId p = 0; p < h.num_processes(); ++p) {
    const auto& seq = h.process_ops(p);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      for (std::size_t j = i + 1; j < seq.size(); ++j) {
        rel.add(seq[i], seq[j]);
      }
    }
  }
  return rel;
}

util::BitRelation reads_from_order(const History& h) {
  util::BitRelation rel(h.size());
  for (MOpId alpha = 0; alpha < h.size(); ++alpha) {
    for (const Operation& read : h.mop(alpha).external_reads()) {
      // An external read naming α itself keeps its self-loop: α would
      // have to precede itself, so the base order is cyclic.
      if (read.reads_from != kInitialMOp) {
        rel.add(read.reads_from, alpha);
      }
    }
  }
  return rel;
}

util::BitRelation real_time_order(const History& h) {
  util::BitRelation rel(h.size());
  for (MOpId a = 0; a < h.size(); ++a) {
    for (MOpId b = 0; b < h.size(); ++b) {
      if (a != b && h.mop(a).response() < h.mop(b).invoke()) rel.add(a, b);
    }
  }
  return rel;
}

util::BitRelation object_order(const History& h) {
  util::BitRelation rel(h.size());
  for (MOpId a = 0; a < h.size(); ++a) {
    for (MOpId b = 0; b < h.size(); ++b) {
      if (a == b || h.mop(a).response() >= h.mop(b).invoke()) continue;
      // share an object?
      const auto& xs = h.mop(a).objects();
      bool share = false;
      for (ObjectId x : xs) {
        if (h.mop(b).touches(x)) {
          share = true;
          break;
        }
      }
      if (share) rel.add(a, b);
    }
  }
  return rel;
}

util::BitRelation ww_order(const WwRanks& ranks) {
  std::vector<std::pair<std::uint64_t, MOpId>> ranked;
  for (MOpId id = 0; id < ranks.size(); ++id) {
    if (ranks[id].has_value()) ranked.emplace_back(*ranks[id], id);
  }
  std::sort(ranked.begin(), ranked.end());
  util::BitRelation rel(ranks.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    for (std::size_t j = i + 1; j < ranked.size(); ++j) {
      rel.add(ranked[i].second, ranked[j].second);
    }
  }
  return rel;
}

util::BitRelation base_order(const History& h, Condition condition) {
  util::BitRelation rel = process_order(h);
  rel.merge(reads_from_order(h));
  switch (condition) {
    case Condition::kMSequentialConsistency:
      break;
    case Condition::kMLinearizability:
      rel.merge(real_time_order(h));
      break;
    case Condition::kMNormality:
      rel.merge(object_order(h));
      break;
  }
  return rel;
}

util::BitRelation closed_base_order(const History& h, Condition condition) {
  return base_order(h, condition).transitive_closure();
}

}  // namespace mocc::core
