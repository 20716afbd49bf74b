#include "analyze/anomaly.hpp"

#include <algorithm>

#include "enumerate/canonical.hpp"
#include "enumerate/observer_enum.hpp"
#include "util/memo_cache.hpp"
#include "util/str.hpp"

namespace ccmm::analyze {

std::optional<Computation> race_witness_capped(const Computation& c, NodeId a,
                                               NodeId b, std::size_t node_cap,
                                               NodeId* wa, NodeId* wb) {
  CCMM_CHECK(a < c.node_count() && b < c.node_count(), "race node out of range");
  std::vector<NodeId> seeds = {a, b};
  if (c.op(a).is_write() && c.op(b).is_write()) {
    // Two parallel writes are indistinguishable to every model until
    // somebody reads the location: keep the earliest read that can see
    // either write (any read not already preceding the race).
    std::optional<DynBitset> base =
        bounded_ancestor_closure(c.dag(), seeds, node_cap);
    if (!base.has_value()) return std::nullopt;
    for (const NodeId r : c.readers(c.op(a).loc)) {
      if (base->test(r)) continue;
      seeds.push_back(r);
      break;
    }
  }
  const std::optional<DynBitset> keep =
      bounded_ancestor_closure(c.dag(), seeds, node_cap);
  if (!keep.has_value()) return std::nullopt;
  std::vector<NodeId> old_to_new;
  Computation w = c.induced(*keep, &old_to_new);
  if (wa != nullptr) *wa = old_to_new[a];
  if (wb != nullptr) *wb = old_to_new[b];
  return w;
}

Computation race_witness(const Computation& c, NodeId a, NodeId b, NodeId* wa,
                         NodeId* wb) {
  return *race_witness_capped(c, a, b, SIZE_MAX, wa, wb);
}

namespace {

/// Race classifications keyed by the canonical form of the minimal
/// witness plus the budgets that shape the answer. Different races in
/// different programs routinely reduce to isomorphic witnesses, so the
/// hit rate on real passes is high. The split is isomorphism-invariant
/// except for sc_budget truncation effects, which already depend on the
/// witness labeling in the uncached path; caching by canonical key just
/// pins one labeling's answer per class.
ShardedMemoCache<ModelSplit>& split_cache() {
  static ShardedMemoCache<ModelSplit> cache(16, 1u << 14);
  return cache;
}

}  // namespace

std::optional<ModelSplit> classify_race(const Computation& c, const Race& r,
                                        const AnomalyOptions& opt) {
  // The capped build bails during the BFS, so an oversized witness
  // costs O(witness_node_cap) — not O(ancestors) — on huge dags.
  const std::optional<Computation> witness =
      race_witness_capped(c, r.a, r.b, opt.witness_node_cap);
  if (!witness.has_value()) return std::nullopt;
  const Computation& w = *witness;
  if (observer_count(w) > opt.observer_budget) return std::nullopt;

  std::string key = canonical_key(w);
  key += format("\x1f%zu\x1f%llu", opt.sc_budget,
                static_cast<unsigned long long>(opt.observer_budget));
  // Compiled extras change the split, so their names and structural
  // digests are part of the identity of the answer.
  for (const auto& m : opt.extra_models) {
    key += '\x1f';
    key += m->name();
    key += '\x1d';
    key += m->cache_tag();
  }
  if (auto hit = split_cache().lookup(key)) return *hit;

  // Registries compiled at this pass's budget classify the six core
  // models and the extras (an extra named like a core model keeps its
  // own entry and bit). The first holds the core models and as many
  // extras as fit; each further one the core models again and the
  // next extras, so any number of extras is classified.
  const std::vector<ModelSpec> core = core_model_specs();
  std::vector<std::string> names;  // model m's name, core models first
  for (const ModelSpec& s : core) names.push_back(s.name);
  std::vector<ModelRegistry> registries;
  std::size_t next = 0;
  do {
    std::vector<ModelSpec> specs = core;
    for (; next < opt.extra_models.size() &&
           specs.size() < ModelRegistry::kCapacity;
         ++next) {
      specs.push_back(opt.extra_models[next]->spec());
      names.push_back(specs.back().name);
    }
    registries.emplace_back(std::move(specs), CompileOptions{opt.sc_budget});
  } while (next < opt.extra_models.size());
  const std::size_t nmodels = names.size();

  ModelSplit split;
  // accepted[m][i]: model m accepts the i-th enumerated observer. One
  // shared preparation + one lattice-pruned sweep per registry and
  // observer; the core models' bits come from the first registry.
  std::vector<std::vector<bool>> accepted(nmodels);
  bool sc_exhausted = false;
  CheckContext ctx;
  const bool completed = for_each_observer(w, [&](const ObserverFunction& phi) {
    const PreparedPair p = ctx.prepare(w, phi);
    std::size_t m = 0;
    for (const ModelRegistry& registry : registries) {
      bool exhausted = false;
      const std::uint64_t mask = registry.classify(p, {}, &exhausted);
      if (exhausted) sc_exhausted = true;
      for (std::size_t e = m == 0 ? 0 : core.size();
           e < registry.entries().size(); ++e)
        accepted[m++].push_back(((mask >> e) & 1) != 0);
    }
    return true;
  });
  split.observers = accepted[0].size();
  split.truncated = !completed || sc_exhausted;

  // Group models with identical accepted sets into behaviour classes.
  std::vector<std::size_t> cls(nmodels, SIZE_MAX);
  for (std::size_t m = 0; m < nmodels; ++m) {
    if (cls[m] != SIZE_MAX) continue;
    cls[m] = split.classes.size();
    split.classes.push_back({names[m]});
    split.accepted.push_back(static_cast<std::size_t>(
        std::count(accepted[m].begin(), accepted[m].end(), true)));
    for (std::size_t o = m + 1; o < nmodels; ++o)
      if (cls[o] == SIZE_MAX && accepted[o] == accepted[m]) {
        cls[o] = cls[m];
        split.classes[cls[m]].push_back(names[o]);
      }
  }
  split_cache().insert(key, split);
  return split;
}

}  // namespace ccmm::analyze
