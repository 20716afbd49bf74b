// ccmm/trace/race.hpp
//
// Determinacy-race detection on computations: two nodes race iff they
// are incomparable in the dag, access the same location, and at least
// one writes. Race-free computations behave identically under every
// model in the paper's hierarchy (every valid observer function is the
// last-writer function of every topological sort), which the test suite
// verifies; races are where the models start to differ.
//
// Three engines share this interface. The pairwise engine tests every
// same-location access pair against the dag's reachability closure and
// works on any computation. When the computation carries its
// series-parallel parse (core/sp_structure.hpp, recorded by
// proc::CilkProgram), find_races and has_race dispatch to the SP-bags
// engine in analyze/sp_bags.hpp instead (disjoint-set replay in the
// Feng–Leiserson Nondeterminator style, no closure build); large
// general dags go to the oracle engine. The lints call none of these:
// they take the race count and the smallest races from
// analyze::summarize_races (analyze/race_oracle.hpp).
#pragma once

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/computation.hpp"

namespace ccmm {

enum class RaceKind : std::uint8_t { kWriteWrite, kReadWrite };

struct Race {
  NodeId a;  // a < b
  NodeId b;
  Location loc;
  RaceKind kind;

  /// The race between accesses x and y (either order) of location l:
  /// write/write when both write, read/write otherwise.
  [[nodiscard]] static Race between(const Computation& c, NodeId x, NodeId y,
                                    Location l) {
    const bool ww = c.op(x).is_write() && c.op(y).is_write();
    return {std::min(x, y), std::max(x, y), l,
            ww ? RaceKind::kWriteWrite : RaceKind::kReadWrite};
  }
  /// The order every engine reports races in: by a, then b, then loc.
  [[nodiscard]] static bool less(const Race& x, const Race& y) noexcept {
    return std::tie(x.a, x.b, x.loc) < std::tie(y.a, y.b, y.loc);
  }

  [[nodiscard]] bool operator==(const Race&) const = default;
};

/// The engines behind find_races/has_race, as select_race_engine picks
/// them: SP-bags when the computation carries its parse, the
/// closure-backed pairwise walk below kPairwiseNodeCutoff nodes, and
/// the oracle engine (analyze/race_oracle.hpp — precedence-oracle fast
/// path + mask sweeps, no closure) for large general dags.
enum class RaceEngine : std::uint8_t { kSpBags, kPairwise, kOracle };

/// Node count at which the dispatch abandons the pairwise engine: past
/// this the O(n²)-bit closure dominates everything else the scan does.
inline constexpr std::size_t kPairwiseNodeCutoff = 2048;

/// The engine find_races/has_race run on this computation.
[[nodiscard]] RaceEngine select_race_engine(const Computation& c);

/// All races, ordered by (a, b, loc), deduplicated. Dispatches through
/// select_race_engine; every engine returns the identical race set.
[[nodiscard]] std::vector<Race> find_races(const Computation& c);

/// The pairwise engine, callable directly (differential tests and the
/// race benchmark compare the two engines explicitly).
[[nodiscard]] std::vector<Race> find_races_pairwise(const Computation& c);

/// True iff c has at least one race. Stops at the first race found —
/// it never materializes the race vector — so race-freedom checks are
/// output-independent.
[[nodiscard]] bool has_race(const Computation& c);

[[nodiscard]] inline bool is_race_free(const Computation& c) {
  return !has_race(c);
}

}  // namespace ccmm
