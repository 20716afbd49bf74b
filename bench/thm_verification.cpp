// Theorems 14, 15, 16, 19, 21, 22: mechanical verification sweeps.
// The exhaustive sweeps (21, 22) run through the isomorphism-quotient
// engine (enumerate/canonical.hpp) and cross-check the weighted census
// against the labeled enumeration, reporting the speedup as metrics.
#include <chrono>

#include "construct/constructibility.hpp"
#include "core/last_writer.hpp"
#include "dag/topsort.hpp"
#include "enumerate/cached_model.hpp"
#include "enumerate/canonical.hpp"
#include "enumerate/universe.hpp"
#include "exec/workload.hpp"
#include "models/compile.hpp"
#include "models/qdag.hpp"
#include "experiment_common.hpp"

namespace ccmm {
namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int run() {
  experiment::Harness h("Theorems 14/15/16/19/21/22 — verification sweeps");
  Rng rng(2024);

  h.section("Theorems 14-16: last-writer functions (randomized sweep)");
  {
    std::size_t sorts = 0;
    bool t14 = true, t15 = true, t16 = true;
    for (int round = 0; round < 200; ++round) {
      const Dag d = gen::random_dag(9, 0.25, rng);
      const Computation c = workload::random_ops(d, 2, 0.4, 0.4, rng);
      const auto t = greedy_random_topological_sort(c.dag(), rng);
      const ObserverFunction w = last_writer(c, t);
      ++sorts;
      // T14: determinism (uniqueness realized as recomputation).
      if (!(last_writer(c, t) == w)) t14 = false;
      // T16: W_T is an observer function.
      if (!is_valid_observer(c, w)) t16 = false;
      // T15: sandwich property.
      const auto pos = position_index(t);
      for (const Location l : c.written_locations()) {
        for (NodeId u = 0; u < c.node_count() && t15; ++u) {
          const NodeId lw = w.get(l, u);
          if (lw == kBottom) continue;
          for (NodeId v = 0; v < c.node_count(); ++v)
            if (pos[lw] < pos[v] && pos[v] <= pos[u] &&
                w.get(l, v) != lw)
              t15 = false;
        }
      }
    }
    h.check(t14, format("T14: unique/deterministic over %zu sorts", sorts));
    h.check(t15, "T15: W_T(l,u) ≺_T v ≼_T u ⇒ W_T(l,v) = W_T(l,u)");
    h.check(t16, "T16: every W_T satisfies Definition 2");
  }

  const auto lc = builtin_model(kSuiteLC);
  const auto sc = builtin_model(kSuiteSC);
  const auto nn = builtin_model(kSuiteNN);

  h.section("Theorem 19: SC and LC are monotonic and constructible");
  {
    UniverseSpec spec;
    spec.max_nodes = 3;
    spec.nlocations = 2;
    const auto universe = build_universe(spec);
    h.note(format("universe: 2 locations, <= 3 nodes, %zu pairs",
                  universe.size()));
    const auto mono_sc = check_monotonicity(*sc, universe);
    const auto mono_lc = check_monotonicity(*lc, universe);
    h.check(mono_sc.monotonic, "SC is monotonic on the universe");
    h.check(mono_lc.monotonic, "LC is monotonic on the universe");

    WitnessSearchOptions options;
    options.spec = spec;
    h.check(
        !find_nonconstructibility_witness(*sc, options).has_value(),
        "SC answers every one-node extension (constructible up to bound)");
    h.check(
        !find_nonconstructibility_witness(*lc, options).has_value(),
        "LC answers every one-node extension (constructible up to bound)");
  }

  h.section("Theorem 21: NN is the strongest Q-dag model");
  {
    UniverseSpec spec;
    spec.max_nodes = 4;
    spec.nlocations = 1;
    spec.include_nop = false;
    std::size_t pairs = 0;
    bool ok = true;
    // Against the named models plus randomized predicates.
    Rng qrng(7);
    std::vector<QPredicate> random_preds;
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t salt = qrng.next();
      random_preds.push_back(
          [salt](const Computation&, Location l, NodeId u, NodeId v,
                 NodeId w) {
            const std::uint64_t x =
                salt ^ (std::uint64_t{l} << 48) ^ (std::uint64_t{u} << 32) ^
                (std::uint64_t{v} << 16) ^ w;
            return (x * 0x9e3779b97f4a7c15ull >> 63) != 0;
          });
    }
    // Quotient sweep: the named Q-dag models are isomorphism-invariant,
    // so checking one representative per class covers the labeled
    // universe; the random predicates are NOT invariant (they hash raw
    // node ids), so on them the sweep is a spot check — still valid
    // evidence, since Theorem 21 quantifies over all Q.
    const auto t0 = std::chrono::steady_clock::now();
    CheckContext ctx;  // one preparation serves every predicate per pair
    for_each_pair_up_to_iso(
        spec, [&](const Computation& c, const ObserverFunction& f,
                  std::uint64_t mult) {
          pairs += mult;
          const PreparedPair p = ctx.prepare(c, f);
          if (qdag_consistent_prepared(p, DagPred::kNN)) {
            for (const DagPred pred :
                 {DagPred::kNW, DagPred::kWN, DagPred::kWW})
              if (!qdag_consistent_prepared(p, pred)) ok = false;
            for (const auto& q : random_preds)
              if (!qdag_consistent_custom_prepared(p, q)) ok = false;
          }
          return true;
        });
    h.metric("t21_quotient_sweep_ms", ms_since(t0), "ms");
    h.check(pairs == pair_count(spec),
            format("quotient multiplicities reproduce the labeled census "
                   "(%zu pairs)",
                   pairs));
    h.check(ok, format("NN ⊆ Q-dag for named + 3 random predicates over "
                       "%zu pairs (one representative per class)",
                       pairs));
  }

  h.section("Theorem 22: LC ⊊ NN (labeled vs quotient sweep)");
  {
    UniverseSpec spec;
    spec.max_nodes = 4;
    spec.nlocations = 1;
    spec.include_nop = false;
    std::size_t in_lc = 0, in_nn = 0;
    bool inclusion = true;
    const auto t0 = std::chrono::steady_clock::now();
    for_each_pair(spec, [&](const Computation& c, const ObserverFunction& f) {
      const bool l = lc->contains(c, f);
      const bool n = nn->contains(c, f);
      in_lc += l;
      in_nn += n;
      if (l && !n) inclusion = false;
      return true;
    });
    const double labeled_ms = ms_since(t0);
    h.check(inclusion, "LC ⊆ NN on the universe");
    h.check(in_lc < in_nn,
            format("strict: |LC| = %zu < |NN| = %zu", in_lc, in_nn));

    // Same census through the quotient engine: one membership query per
    // isomorphism class, weighted by orbit size.
    std::size_t q_lc = 0, q_nn = 0;
    bool q_inclusion = true;
    const auto t1 = std::chrono::steady_clock::now();
    for_each_pair_up_to_iso(
        spec, [&](const Computation& c, const ObserverFunction& f,
                  std::uint64_t mult) {
          const bool l = lc->contains(c, f);
          const bool n = nn->contains(c, f);
          if (l) q_lc += mult;
          if (n) q_nn += mult;
          if (l && !n) q_inclusion = false;
          return true;
        });
    const double quotient_ms = ms_since(t1);
    h.check(q_inclusion && q_lc == in_lc && q_nn == in_nn,
            format("quotient sweep reproduces the labeled census exactly "
                   "(|LC| = %zu, |NN| = %zu)",
                   q_lc, q_nn));
    h.metric("t22_labeled_sweep_ms", labeled_ms, "ms");
    h.metric("t22_quotient_sweep_ms", quotient_ms, "ms");
    if (quotient_ms > 0)
      h.metric("t22_quotient_speedup", labeled_ms / quotient_ms, "x");
  }

  h.section("classification cache: one bitmask per orbit");
  {
    // Sweep the labeled 4-node universe through cached_classification:
    // the cold pass already hits for every non-canonical member of an
    // orbit, and a warm pass answers everything from the cache.
    UniverseSpec spec;
    spec.max_nodes = 4;
    spec.nlocations = 1;
    spec.include_nop = false;
    const auto census = [&] {
      std::size_t in_any = 0;
      for_each_pair(spec,
                    [&](const Computation& c, const ObserverFunction& f) {
                      if (cached_classification(c, f) != 0) ++in_any;
                      return true;
                    });
      return in_any;
    };
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t cold = census();
    const double cold_ms = ms_since(t0);
    const auto t1 = std::chrono::steady_clock::now();
    const std::size_t warm = census();
    const double warm_ms = ms_since(t1);
    h.check(cold == warm,
            format("warm pass reproduces the cold census (%zu valid pairs)",
                   cold));
    h.metric("classify_cold_sweep_ms", cold_ms, "ms");
    h.metric("classify_warm_sweep_ms", warm_ms, "ms");
    if (warm_ms > 0)
      h.metric("classify_cache_speedup", cold_ms / warm_ms, "x");
  }

  h.section("quotient ceiling: class census at sizes beyond the sweeps");
  {
    // The labeled universe at 5 nodes (1 location, no nops) is already
    // ~20x the 4-node one; the quotient engine canonicalizes it in well
    // under a second, which is what raises the reachable max_nodes for
    // the exhaustive checkers.
    UniverseSpec spec;
    spec.max_nodes = 5;
    spec.nlocations = 1;
    spec.include_nop = false;
    std::uint64_t classes = 0, labeled = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for_each_computation_up_to_iso(
        spec, [&](const Computation&, std::uint64_t mult) {
          ++classes;
          labeled += mult;
          return true;
        });
    h.metric("census5_quotient_ms", ms_since(t0), "ms");
    h.metric("census5_classes", static_cast<double>(classes));
    h.metric("census5_labeled", static_cast<double>(labeled));
    h.check(labeled == computation_count(spec),
            format("orbit sizes sum to the labeled count: %llu classes "
                   "stand for %llu computations",
                   static_cast<unsigned long long>(classes),
                   static_cast<unsigned long long>(labeled)));
  }

  experiment::report_cache_metrics(h);
  return h.finish();
}

}  // namespace
}  // namespace ccmm

int main() { return ccmm::run(); }
