#include "core/legality.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace mocc::core {

std::string LegalityViolation::to_string() const {
  // Appended, not `"m" + std::to_string(beta)`: gcc 12's -Wrestrict
  // misfires on that operator+ in Release builds.
  std::string writer = beta == kInitialMOp ? "init" : "m";
  if (beta != kInitialMOp) writer += std::to_string(beta);
  std::ostringstream out;
  out << "m" << alpha << " reads x" << object << " from " << writer;
  if (gamma == beta) {
    out << ", which never writes x" << object;
    return out.str();
  }
  out << ", but m" << gamma << " writes x" << object << " and " << writer << " ~> m"
      << gamma << " ~> m" << alpha;
  return out.str();
}

std::optional<LegalityViolation> find_legality_violation(
    const History& h, const util::BitRelation& order) {
  // Iterate over reads-from pairs rather than all triples: for each
  // external read (α reads x from β), scan candidate overwriters γ.
  for (MOpId alpha = 0; alpha < h.size(); ++alpha) {
    for (const Operation& read : h.mop(alpha).external_reads()) {
      const MOpId beta = read.reads_from;
      if (beta == kInitialMOp) {
        // Initial write: overwritten if any γ writing x precedes α; the
        // initializing m-op precedes everything, so the condition
        // degenerates to: no writer of x ordered before α.
        for (MOpId gamma = 0; gamma < h.size(); ++gamma) {
          if (gamma != alpha && h.mop(gamma).writes(read.object) &&
              order.has(gamma, alpha)) {
            return LegalityViolation{alpha, kInitialMOp, gamma, read.object};
          }
        }
        continue;
      }
      if (!h.mop(beta).writes(read.object)) {
        return LegalityViolation{alpha, beta, beta, read.object};
      }
      for (MOpId gamma = 0; gamma < h.size(); ++gamma) {
        if (gamma == alpha || gamma == beta) continue;
        if (!h.mop(gamma).writes(read.object)) continue;
        if (order.has(beta, gamma) && order.has(gamma, alpha)) {
          return LegalityViolation{alpha, beta, gamma, read.object};
        }
      }
    }
  }
  return std::nullopt;
}

util::BitRelation rw_precedence(const History& h, const util::BitRelation& order) {
  util::BitRelation rw(h.size());
  for (MOpId alpha = 0; alpha < h.size(); ++alpha) {
    for (const Operation& read : h.mop(alpha).external_reads()) {
      const MOpId beta = read.reads_from;
      for (MOpId gamma = 0; gamma < h.size(); ++gamma) {
        if (gamma == alpha || gamma == beta) continue;
        if (!h.mop(gamma).writes(read.object)) continue;
        if (beta == kInitialMOp) {
          // The initializing m-op is ordered before every m-operation, so
          // interfere(α, init, γ) yields α ~rw~> γ unconditionally.
          rw.add(alpha, gamma);
        } else if (order.has(beta, gamma)) {
          rw.add(alpha, gamma);
        }
      }
    }
  }
  return rw;
}

util::BitRelation extended_relation(const History& h, const util::BitRelation& order) {
  util::BitRelation merged = order;
  merged.merge(rw_precedence(h, order));
  return merged.transitive_closure();
}

bool is_legal_sequential_order(const History& h, const std::vector<MOpId>& order) {
  if (order.size() != h.size()) return false;
  std::vector<MOpId> last_writer(h.num_objects(), kInitialMOp);
  std::vector<bool> placed(h.size(), false);
  for (const MOpId id : order) {
    if (id >= h.size() || placed[id]) return false;
    const MOperation& m = h.mop(id);
    for (const Operation& read : m.external_reads()) {
      if (last_writer[read.object] != read.reads_from) return false;
    }
    for (const ObjectId x : m.wobjects()) last_writer[x] = id;
    placed[id] = true;
  }
  return true;
}

}  // namespace mocc::core
