// Per-object version timestamps (the paper's `ts` vectors, §5).
//
// A timestamp has one unsigned counter per shared object; entry x is the
// version of object x (number of writes to x that the copy reflects).
// The paper uses two orders on timestamps:
//   - the pointwise partial order:  ts <= ts'  iff every entry of ts is
//     <= the corresponding entry of ts' (P 5.x proofs);
//   - lexicographic order, used to break ties when comparing copies.
// Both are provided, plus the comparisons the protocols need.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mocc::util {

class VersionVector {
 public:
  VersionVector() = default;
  explicit VersionVector(std::size_t num_objects) : v_(num_objects, 0) {}
  static VersionVector from_entries(std::vector<std::uint64_t> entries) {
    VersionVector vv;
    vv.v_ = std::move(entries);
    return vv;
  }

  /// Replaces the entries, reusing this vector's storage.
  void assign(const std::vector<std::uint64_t>& entries) { v_ = entries; }

  std::size_t size() const { return v_.size(); }
  /// True for a default-constructed vector (no objects tracked yet).
  bool empty() const { return v_.empty(); }
  std::uint64_t operator[](std::size_t x) const { return v_[x]; }

  /// Bump the version of object x (a write to x creates a new version).
  void increment(std::size_t x);

  /// Pointwise comparisons — the paper's <= and < (D: "ts is less than ts'
  /// iff ts <= ts' and they are not equal").
  bool pointwise_leq(const VersionVector& other) const;
  bool pointwise_less(const VersionVector& other) const;
  bool operator==(const VersionVector& other) const { return v_ == other.v_; }

  /// True iff the two vectors are ordered one way or the other under the
  /// pointwise order. Replicas driven by the same atomic broadcast always
  /// hold comparable timestamps; the m-linearizability protocol asserts it.
  bool comparable(const VersionVector& other) const;

  /// Lexicographic three-way comparison: -1, 0, +1.
  int lex_compare(const VersionVector& other) const;

  /// Componentwise maximum (join in the version lattice).
  void merge_max(const VersionVector& other);

  std::string to_string() const;

  const std::vector<std::uint64_t>& entries() const { return v_; }

 private:
  std::vector<std::uint64_t> v_;
};

}  // namespace mocc::util
