// mocc-determinism: no wall clock, no ambient randomness, no unordered
// containers inside the deterministic subtree.
//
// The simulator's contract — byte-identical reruns for a fixed seed —
// dies quietly the first time protocol or bench code reads the host
// clock, draws from an unseeded RNG, or serializes the iteration order
// of a hash container. util::Rng (seeded, owned per run) is the only
// sanctioned randomness; std::map / std::set / sorting at the boundary
// are the sanctioned orderings.
//
// The token engine is deliberately conservative: ANY mention of an
// unordered container in the subtree needs an inline allow with a
// justification (the AST frontend narrows this to actual iteration).
// Membership-only memo sets are fine — say so in the allow.
#include "lint.hpp"

#include <array>

namespace mocc::lint {

namespace {

/// Identifiers that are banned wherever they appear in the subtree.
constexpr std::array<std::string_view, 9> kBannedAnywhere = {
    "random_device",    "system_clock", "steady_clock",
    "high_resolution_clock", "gettimeofday", "clock_gettime",
    "localtime",        "gmtime",       "timespec_get"};

/// Identifiers banned as free / std-qualified calls (member accesses
/// like `event.time` or `obj->clock` stay legal).
constexpr std::array<std::string_view, 4> kBannedCalls = {"rand", "srand",
                                                          "time", "clock"};

constexpr std::array<std::string_view, 4> kUnordered = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

template <std::size_t N>
bool contains(const std::array<std::string_view, N>& set,
              std::string_view name) {
  for (const auto entry : set) {
    if (entry == name) return true;
  }
  return false;
}

/// 'name'. Appended rather than `"'" + std::string(name)`: gcc 12's
/// -Wrestrict misfires on that operator+ in Release builds.
std::string quoted(std::string_view name) {
  std::string out = "'";
  out += name;
  out += '\'';
  return out;
}

}  // namespace

void check_determinism(const Config& config, const SourceFile& file,
                       std::vector<Diagnostic>& out) {
  if (!config.in_deterministic_subtree(file.path())) return;
  const std::vector<Token> tokens = tokenize(file);
  auto emit = [&](std::size_t offset, std::string message) {
    const std::size_t line = file.line_of(offset);
    if (file.allowed("determinism", line)) return;
    out.push_back({"determinism", file.path(), line, std::move(message)});
  };

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind != Token::Kind::kIdent) continue;

    if (contains(kBannedAnywhere, tok.text)) {
      emit(tok.offset, quoted(tok.text) +
                           " in the deterministic subtree (wall clock / ambient "
                           "randomness breaks byte-identical reruns; use the run's "
                           "seeded util::Rng and virtual time)");
      continue;
    }

    if (contains(kUnordered, tok.text)) {
      emit(tok.offset, quoted(tok.text) +
                           " in the deterministic subtree (iteration order is "
                           "implementation-defined; use std::map/std::set, sort at "
                           "the boundary, or justify with an inline allow)");
      continue;
    }

    if (contains(kBannedCalls, tok.text)) {
      // Only direct calls: `time(`, `std::time(` — not `.time`,
      // `->clock()`, `x::time` for a non-std x, or a plain field named
      // `time`.
      const bool called =
          i + 1 < tokens.size() && tokens[i + 1].text == "(";
      if (!called) continue;
      if (i > 0) {
        const std::string_view prev = tokens[i - 1].text;
        if (prev == "." || prev == "->") continue;
        if (prev == "::") {
          const bool std_qualified = i >= 2 && tokens[i - 2].text == "std";
          if (!std_qualified) continue;
        }
      }
      emit(tok.offset,
           "call of '" + std::string(tok.text) +
               "' in the deterministic subtree (wall clock / ambient "
               "randomness breaks byte-identical reruns)");
    }
  }
}

}  // namespace mocc::lint
