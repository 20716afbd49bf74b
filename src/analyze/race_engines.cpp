// Implements the race-detection interface of trace/race.hpp. The
// definitions live in the analyze library so the dispatchers below can
// reach the SP-bags engine while analyze passes call find_races without
// a dependency cycle between the trace and analyze libraries.
#include "trace/race.hpp"

#include <algorithm>

#include "analyze/race_oracle.hpp"
#include "analyze/sp_bags.hpp"
#include "core/location_index.hpp"

namespace ccmm {
namespace {

/// Hand `f` every race, found by testing each same-location pair with a
/// writer against the reachability closure, until it returns false.
template <typename F>
void for_each_pairwise_race(const Computation& c, F&& f) {
  LocationIndex index(c);
  index.build_csr(true);
  for (std::size_t i = 0; i < index.size(); ++i) {
    const std::span<const NodeId> nodes = index.accessors(i);
    for (std::size_t x = 0; x < nodes.size(); ++x) {
      for (std::size_t y = x + 1; y < nodes.size(); ++y) {
        const NodeId a = nodes[x];
        const NodeId b = nodes[y];
        if (!c.op(a).is_write() && !c.op(b).is_write()) continue;
        if (c.precedes(a, b) || c.precedes(b, a)) continue;
        if (!f(Race::between(c, a, b, index.location(i)))) return;
      }
    }
  }
}

}  // namespace

std::vector<Race> find_races_pairwise(const Computation& c) {
  std::vector<Race> races;
  for_each_pairwise_race(c, [&](const Race& r) {
    races.push_back(r);
    return true;
  });
  std::sort(races.begin(), races.end(), Race::less);
  return races;
}

RaceEngine select_race_engine(const Computation& c) {
  if (c.sp_structure() != nullptr) return RaceEngine::kSpBags;
  if (c.node_count() <= kPairwiseNodeCutoff) return RaceEngine::kPairwise;
  return RaceEngine::kOracle;
}

std::vector<Race> find_races(const Computation& c) {
  switch (select_race_engine(c)) {
    case RaceEngine::kSpBags:
      return analyze::find_races_sp(c);
    case RaceEngine::kOracle:
      return analyze::find_races_oracle(c);
    default:
      return find_races_pairwise(c);
  }
}

bool has_race(const Computation& c) {
  switch (select_race_engine(c)) {
    case RaceEngine::kSpBags:
      return analyze::has_race_sp(c);
    case RaceEngine::kOracle:
      return analyze::has_race_oracle(c);
    default:
      break;
  }
  bool found = false;
  for_each_pairwise_race(c, [&](const Race&) {
    found = true;
    return false;
  });
  return found;
}

}  // namespace ccmm
