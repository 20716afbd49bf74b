// tests/reference_fixpoint.hpp — the constructible version Δ*
// (Definition 8) on a bounded universe, computed straight from its
// definition as the reference for the worklist engine
// (construct/fixpoint.hpp). It shares none of the engine's machinery: no
// closure-deduplicated extensions, no pulled-back answer lists, no
// support edges, no quotient. Starting from the labeled restriction of
// the model, each round kills every live non-boundary pair that some
// in-universe one-node extension cannot answer from the round-start live
// set; the loop stops at the first round that kills nothing. Only the
// public API is used: for_each_one_node_extension (dedupe off),
// for_each_extension_observer and BoundedModelSet::contains_pair.
#pragma once

#include <cstddef>
#include <vector>

#include "construct/extension.hpp"
#include "construct/fixpoint.hpp"

namespace ccmm::test {

/// Is `c` inside `spec`'s universe? Extensions that leave it carry no
/// information and impose no constraint.
inline bool in_universe(const Computation& c, const UniverseSpec& spec) {
  if (c.node_count() > spec.max_nodes) return false;
  std::vector<std::size_t> writes(spec.nlocations, 0);
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    if (o.is_nop() && !spec.include_nop) return false;
    if (o.is_write() && ++writes[o.loc] > spec.max_writes_per_location)
      return false;
  }
  return true;
}

/// Definition 8's test: every in-universe one-node extension of c has an
/// observer that extends phi and is live in `set`.
inline bool answers_every_extension(const BoundedModelSet& set,
                                    const Computation& c,
                                    const ObserverFunction& phi) {
  const UniverseSpec& spec = set.spec();
  bool all = true;
  for_each_one_node_extension(
      c, op_alphabet(spec.nlocations), /*dedupe_by_closure=*/false,
      [&](const Computation& ext) {
        if (!in_universe(ext, spec)) return true;
        bool answered = false;
        for_each_extension_observer(ext, phi,
                                    [&](const ObserverFunction& phi2) {
                                      answered = set.contains_pair(ext, phi2);
                                      return !answered;
                                    });
        all = answered;
        return all;
      });
  return all;
}

/// The bounded greatest fixpoint of `model` on `spec`'s labeled
/// universe. Pairs with max_nodes nodes are boundary pairs and never
/// die. `pruned` receives the number of killed pairs.
inline BoundedModelSet reference_fixpoint(const MemoryModel& model,
                                          const UniverseSpec& spec,
                                          std::size_t* pruned = nullptr) {
  BoundedModelSet set = BoundedModelSet::restrict_model(model, spec);
  std::size_t killed = 0;
  for (;;) {
    std::vector<char*> kills;
    for (auto& [key, e] : set.entries()) {
      if (e.c.node_count() >= spec.max_nodes) continue;
      for (std::size_t i = 0; i < e.phis.size(); ++i)
        if (e.alive[i] && !answers_every_extension(set, e.c, e.phis[i]))
          kills.push_back(&e.alive[i]);
    }
    if (kills.empty()) break;
    for (char* alive : kills) *alive = 0;
    killed += kills.size();
  }
  if (pruned != nullptr) *pruned = killed;
  return set;
}

}  // namespace ccmm::test
