// Microbenchmarks: universe enumeration throughput — the engine under
// every exhaustive verification in this repository.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "construct/fixpoint.hpp"
#include "dag/generators.hpp"
#include "enumerate/canonical.hpp"
#include "enumerate/dag_enum.hpp"
#include "enumerate/universe.hpp"
#include "models/compile.hpp"
#include "models/qdag.hpp"

namespace ccmm {
namespace {

void BM_DagEnumeration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::size_t count = 0;
    for_each_topo_dag(n, [&](const Dag& d) {
      benchmark::DoNotOptimize(d.node_count());
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_DagEnumeration)->Arg(3)->Arg(4)->Arg(5);

void BM_PairEnumeration(benchmark::State& state) {
  UniverseSpec spec;
  spec.max_nodes = static_cast<std::size_t>(state.range(0));
  spec.nlocations = 1;
  spec.include_nop = false;
  for (auto _ : state) {
    std::size_t pairs = 0;
    for_each_pair(spec, [&](const Computation&, const ObserverFunction&) {
      ++pairs;
      return true;
    });
    benchmark::DoNotOptimize(pairs);
    state.counters["pairs"] = static_cast<double>(pairs);
  }
}
BENCHMARK(BM_PairEnumeration)->Arg(3)->Arg(4);

void BM_PairEnumerationWithNNCheck(benchmark::State& state) {
  UniverseSpec spec;
  spec.max_nodes = static_cast<std::size_t>(state.range(0));
  spec.nlocations = 1;
  spec.include_nop = false;
  for (auto _ : state) {
    std::size_t members = 0;
    for_each_pair(spec, [&](const Computation& c, const ObserverFunction& f) {
      members += qdag_consistent(c, f, DagPred::kNN) ? 1 : 0;
      return true;
    });
    benchmark::DoNotOptimize(members);
    state.counters["nn_members"] = static_cast<double>(members);
  }
}
BENCHMARK(BM_PairEnumerationWithNNCheck)->Arg(3)->Arg(4);

void BM_PairEnumerationUpToIso(benchmark::State& state) {
  UniverseSpec spec;
  spec.max_nodes = static_cast<std::size_t>(state.range(0));
  spec.nlocations = 1;
  spec.include_nop = false;
  for (auto _ : state) {
    std::size_t reps = 0;
    std::uint64_t labeled = 0;
    for_each_pair_up_to_iso(
        spec, [&](const Computation&, const ObserverFunction&,
                  std::uint64_t mult) {
          ++reps;
          labeled += mult;
          return true;
        });
    benchmark::DoNotOptimize(reps);
    state.counters["rep_pairs"] = static_cast<double>(reps);
    state.counters["labeled_pairs"] = static_cast<double>(labeled);
  }
}
BENCHMARK(BM_PairEnumerationUpToIso)->Arg(3)->Arg(4);

void BM_PairEnumerationWithNNCheckUpToIso(benchmark::State& state) {
  // The quotient counterpart of BM_PairEnumerationWithNNCheck: one
  // membership query per isomorphism class, census restored by orbit
  // multiplicities (counters match the labeled benchmark's).
  UniverseSpec spec;
  spec.max_nodes = static_cast<std::size_t>(state.range(0));
  spec.nlocations = 1;
  spec.include_nop = false;
  for (auto _ : state) {
    std::uint64_t members = 0;
    for_each_pair_up_to_iso(
        spec, [&](const Computation& c, const ObserverFunction& f,
                  std::uint64_t mult) {
          if (qdag_consistent(c, f, DagPred::kNN)) members += mult;
          return true;
        });
    benchmark::DoNotOptimize(members);
    state.counters["nn_members"] = static_cast<double>(members);
  }
}
BENCHMARK(BM_PairEnumerationWithNNCheckUpToIso)->Arg(3)->Arg(4);

void BM_ObserverCounting(benchmark::State& state) {
  UniverseSpec spec;
  spec.max_nodes = static_cast<std::size_t>(state.range(0));
  spec.nlocations = 1;
  for (auto _ : state) benchmark::DoNotOptimize(pair_count(spec));
}
BENCHMARK(BM_ObserverCounting)->Arg(4)->Arg(5);

void BM_EncodeComputation(benchmark::State& state) {
  Rng rng(1);
  const Dag d = gen::random_dag(static_cast<std::size_t>(state.range(0)),
                                0.3, rng);
  std::vector<Op> ops(d.node_count(), Op::read(0));
  const Computation c(d, ops);
  for (auto _ : state) benchmark::DoNotOptimize(encode_computation(c));
}
BENCHMARK(BM_EncodeComputation)->Arg(8)->Arg(16);

void BM_CanonicalForm(benchmark::State& state) {
  // canonical_form on the same inputs as BM_EncodeComputation: the gap
  // between the two is the cost of refinement + leaf search on top of a
  // plain encoding.
  Rng rng(1);
  const Dag d = gen::random_dag(static_cast<std::size_t>(state.range(0)),
                                0.3, rng);
  std::vector<Op> ops(d.node_count(), Op::read(0));
  const Computation c(d, ops);
  for (auto _ : state) benchmark::DoNotOptimize(canonical_form(c).encoding);
}
BENCHMARK(BM_CanonicalForm)->Arg(8)->Arg(16);

void BM_RestrictModelQuotientParallel(benchmark::State& state) {
  // Parallel scaling of the pool-parallel quotient enumeration: arg 1 is
  // the worker count (0 = sequential path, no pool). Dag-class shards
  // fan out over the pool; per-thread results merge at the end.
  UniverseSpec spec;
  spec.max_nodes = static_cast<std::size_t>(state.range(0));
  spec.nlocations = 1;
  spec.include_nop = false;
  spec.max_writes_per_location = 2;
  const auto nthreads = static_cast<std::size_t>(state.range(1));
  std::unique_ptr<ThreadPool> pool;
  if (nthreads > 0) pool = std::make_unique<ThreadPool>(nthreads);
  for (auto _ : state) {
    const auto set = BoundedModelSet::restrict_model_quotient(
        *builtin_model(kSuiteNN), spec, pool.get());
    benchmark::DoNotOptimize(set.live_count());
    state.counters["entries"] = static_cast<double>(set.entries().size());
  }
}
BENCHMARK(BM_RestrictModelQuotientParallel)
    ->Args({5, 0})
    ->Args({5, 1})
    ->Args({5, 2})
    ->Args({5, std::max(4L, static_cast<long>(
                            std::thread::hardware_concurrency()))})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace ccmm
