// Microbenchmarks: model-membership checking throughput as computations
// grow — the per-location kernel behind the Q-dag, LC and freshness
// checkers, the cubic custom-predicate scan, observer validation, and
// the per-pair fixed cost over a whole small universe.
#include <benchmark/benchmark.h>

#include "core/last_writer.hpp"
#include "dag/topsort.hpp"
#include "enumerate/observer_enum.hpp"
#include "enumerate/universe.hpp"
#include "exec/workload.hpp"
#include "models/compile.hpp"
#include "models/location_consistency.hpp"
#include "models/qdag.hpp"
#include "models/sequential_consistency.hpp"

namespace ccmm {
namespace {

struct Instance {
  Computation c;
  ObserverFunction phi;
};

/// Observer shapes for the classification sweep. The three shapes
/// exercise different depths of the strength lattice: a member observer
/// runs every checker, a WW-breaking one lets the pruned suite stop
/// after a single scan, an SC-breaking one passes the cheap checkers
/// and spends its time in the backtracking search.
enum class Shape { kMember, kWwBreaking, kScBreaking };

Instance make_instance(std::size_t nodes, Shape shape) {
  Rng rng(nodes * 31 + (shape == Shape::kMember ? 7 : 0));
  const Dag d = gen::random_dag(nodes, 8.0 / static_cast<double>(nodes), rng);
  Computation c = workload::random_ops(d, 4, 0.4, 0.4, rng);
  c.dag().ensure_closure();
  if (shape != Shape::kScBreaking) {
    // A member observer: last-writer of a random sort.
    ObserverFunction phi =
        last_writer(c, greedy_random_topological_sort(c.dag(), rng));
    if (shape == Shape::kWwBreaking) {
      // Redirect one read to the earliest of a write-sandwich pair of
      // its ancestor writers: still a valid observer (the observed
      // write precedes the read), but some writer now sits strictly
      // between observed write and reader, which every Q-dag model
      // down to WW rejects.
      for (auto u = static_cast<NodeId>(c.node_count()); u-- > 0;) {
        const Op o = c.op(u);
        if (!o.is_read()) continue;
        const Location l = o.loc;
        NodeId early = kBottom;
        for (const NodeId x : c.writers(l)) {
          if (!c.precedes(x, u)) continue;
          for (const NodeId w : c.writers(l))
            if (c.precedes(x, w) && c.precedes(w, u)) {
              early = x;
              break;
            }
          if (early != kBottom) break;
        }
        if (early == kBottom) continue;
        phi.set(l, u, early);
        break;
      }
    }
    return {std::move(c), std::move(phi)};
  }
  // A likely non-member: per-location independent sorts, then perturbed.
  ObserverFunction phi(c.node_count());
  for (const Location l : c.written_locations()) {
    const auto t = greedy_random_topological_sort(c.dag(), rng);
    const ObserverFunction w = last_writer(c, t);
    for (NodeId u = 0; u < c.node_count(); ++u)
      if (w.get(l, u) != kBottom) phi.set(l, u, w.get(l, u));
  }
  return {std::move(c), std::move(phi)};
}

Instance make_instance(std::size_t nodes, bool lc_shaped) {
  return make_instance(nodes, lc_shaped ? Shape::kMember : Shape::kScBreaking);
}

void BM_ValidateObserver(benchmark::State& state) {
  const Instance in = make_instance(static_cast<std::size_t>(state.range(0)),
                                    true);
  for (auto _ : state)
    benchmark::DoNotOptimize(is_valid_observer(in.c, in.phi));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ValidateObserver)->Arg(16)->Arg(64)->Arg(256);

void BM_QDagCheck(benchmark::State& state) {
  const auto pred = static_cast<DagPred>(state.range(1));
  const Instance in = make_instance(static_cast<std::size_t>(state.range(0)),
                                    true);
  for (auto _ : state)
    benchmark::DoNotOptimize(qdag_consistent(in.c, in.phi, pred));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_QDagCheck)
    ->Args({16, 0})
    ->Args({64, 0})
    ->Args({256, 0})
    ->Args({16, 3})
    ->Args({64, 3})
    ->Args({256, 3});

void BM_QDagCheckCustomCubic(benchmark::State& state) {
  const Instance in = make_instance(static_cast<std::size_t>(state.range(0)),
                                    true);
  const QPredicate nn = [](const Computation&, Location, NodeId, NodeId,
                           NodeId) { return true; };
  for (auto _ : state)
    benchmark::DoNotOptimize(qdag_consistent_custom(in.c, in.phi, nn));
}
BENCHMARK(BM_QDagCheckCustomCubic)->Arg(16)->Arg(48);

void BM_LocationConsistency(benchmark::State& state) {
  const Instance in = make_instance(static_cast<std::size_t>(state.range(0)),
                                    state.range(1) != 0);
  for (auto _ : state)
    benchmark::DoNotOptimize(location_consistent(in.c, in.phi));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LocationConsistency)
    ->Args({16, 1})
    ->Args({64, 1})
    ->Args({256, 1})
    ->Args({1024, 1})
    ->Args({256, 0});

void BM_Prepare(benchmark::State& state) {
  const Instance in =
      make_instance(static_cast<std::size_t>(state.range(0)), Shape::kMember);
  CheckContext ctx;
  for (auto _ : state)
    benchmark::DoNotOptimize(ctx.prepare(in.c, in.phi).valid());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Prepare)->Arg(16)->Arg(64)->Arg(256);

// Classify one (C, Φ) against all six core models: one preparation and
// one lattice-pruned sweep of a registry of the six built-in specs.
// Arg layout: {nodes, shape}.
constexpr std::size_t kClassifyScBudget = 200'000;

void BM_ClassifyAllSixPrepared(benchmark::State& state) {
  const Instance in = make_instance(static_cast<std::size_t>(state.range(0)),
                                    static_cast<Shape>(state.range(1)));
  const ModelRegistry registry(core_model_specs(),
                               CompileOptions{kClassifyScBudget});
  CheckContext ctx;
  for (auto _ : state) {
    const std::uint64_t mask = registry.classify(ctx.prepare(in.c, in.phi));
    benchmark::DoNotOptimize(mask);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 6);
}
BENCHMARK(BM_ClassifyAllSixPrepared)
    ->Args({16, 0})
    ->Args({64, 0})
    ->Args({256, 0})
    ->Args({16, 1})
    ->Args({64, 1})
    ->Args({256, 1})
    ->Args({16, 2})
    ->Args({64, 2})
    ->Args({256, 2});

// The fixed cost per small pair, which the exhaustive sweeps, Δ* and
// the censuses pay: prepare + classify every pair of the ≤4-node,
// 2-location universe (470,066 pairs) against the eight built-ins
// (Arg 0), or decide LC alone (Arg 1). The universe is enumerated once,
// outside the timing.
void BM_ClassifyUniverse(benchmark::State& state) {
  UniverseSpec spec;
  spec.max_nodes = 4;
  spec.nlocations = 2;
  std::vector<std::pair<Computation, std::vector<ObserverFunction>>> groups;
  std::size_t pairs = 0;
  for_each_computation(spec, [&](const Computation& c) {
    groups.emplace_back(c, std::vector<ObserverFunction>{});
    for_each_observer(c, [&](const ObserverFunction& phi) {
      groups.back().second.push_back(phi);
      return true;
    });
    pairs += groups.back().second.size();
    return true;
  });
  const ModelRegistry registry(builtin_model_specs());
  const bool lc_only = state.range(0) != 0;
  CheckContext ctx;
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (const auto& [c, observers] : groups)
      for (const ObserverFunction& phi : observers) {
        const PreparedPair p = ctx.prepare(c, phi);
        acc += lc_only ? static_cast<std::uint64_t>(
                             location_consistent_prepared(p))
                       : registry.classify(p);
      }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pairs));
}
BENCHMARK(BM_ClassifyUniverse)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_LastWriter(benchmark::State& state) {
  Rng rng(4);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Dag d = gen::random_dag(n, 8.0 / static_cast<double>(n), rng);
  const Computation c = workload::random_ops(d, 4, 0.4, 0.4, rng);
  const auto t = c.dag().topological_order();
  for (auto _ : state) benchmark::DoNotOptimize(last_writer(c, t));
}
BENCHMARK(BM_LastWriter)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace ccmm
