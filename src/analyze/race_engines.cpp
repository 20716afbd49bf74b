// Implements the race-detection interface of trace/race.hpp. The
// definitions live in the analyze library so the dispatchers below can
// reach the SP-bags engine while analyze passes call find_races without
// a dependency cycle between the trace and analyze libraries.
#include "trace/race.hpp"

#include <algorithm>
#include <unordered_map>

#include "analyze/race_oracle.hpp"
#include "analyze/sp_bags.hpp"

namespace ccmm {
namespace {

// Group accessors per location: the unit both pairwise walks share.
std::unordered_map<Location, std::vector<NodeId>> accessors_by_location(
    const Computation& c) {
  std::unordered_map<Location, std::vector<NodeId>> accessors;
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    if (!o.is_nop()) accessors[o.loc].push_back(u);
  }
  return accessors;
}

}  // namespace

std::vector<Race> find_races_pairwise(const Computation& c) {
  std::vector<Race> races;
  // Test pairs for dag-incomparability with the reachability bitsets.
  for (const auto& [l, nodes] : accessors_by_location(c)) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        const NodeId a = nodes[i];
        const NodeId b = nodes[j];
        const bool aw = c.op(a).is_write();
        const bool bw = c.op(b).is_write();
        if (!aw && !bw) continue;  // read/read never races
        if (c.precedes(a, b) || c.precedes(b, a)) continue;
        races.push_back(
            {a, b, l, aw && bw ? RaceKind::kWriteWrite : RaceKind::kReadWrite});
      }
    }
  }
  std::sort(races.begin(), races.end(), [](const Race& x, const Race& y) {
    if (x.a != y.a) return x.a < y.a;
    if (x.b != y.b) return x.b < y.b;
    return x.loc < y.loc;
  });
  races.erase(std::unique(races.begin(), races.end()), races.end());
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
  for (const auto& [l, nodes] : accessors_by_location(c)) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        const NodeId a = nodes[i];
        const NodeId b = nodes[j];
        if (!c.op(a).is_write() && !c.op(b).is_write()) continue;
        if (c.precedes(a, b) || c.precedes(b, a)) continue;
        return true;
      }
    }
  }
  return false;
}

}  // namespace ccmm
