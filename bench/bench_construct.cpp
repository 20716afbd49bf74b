// Microbenchmarks: the constructibility engine — witness search, the Δ*
// fixpoint (labeled vs quotient, sequential vs pool-parallel),
// extension enumeration, and canonicalization.
#include <benchmark/benchmark.h>

#include "construct/constructibility.hpp"
#include "construct/extension.hpp"
#include "dag/generators.hpp"
#include "construct/fixpoint.hpp"
#include "enumerate/canonical.hpp"
#include "enumerate/isomorphism.hpp"
#include "models/compile.hpp"

namespace ccmm {
namespace {

UniverseSpec thin_spec(std::size_t max_nodes) {
  UniverseSpec spec;
  spec.max_nodes = max_nodes;
  spec.nlocations = 1;
  spec.include_nop = false;
  spec.max_writes_per_location = 2;
  return spec;
}

void BM_WitnessSearchNN(benchmark::State& state) {
  WitnessSearchOptions options;
  options.spec.max_nodes = static_cast<std::size_t>(state.range(0));
  options.spec.nlocations = 1;
  options.spec.include_nop = false;
  options.quotient = false;  // labeled baseline
  for (auto _ : state) {
    const auto w =
        find_nonconstructibility_witness(*builtin_model(kSuiteNN), options);
    benchmark::DoNotOptimize(w.has_value());
  }
}
BENCHMARK(BM_WitnessSearchNN)->Arg(3)->Arg(4);

void BM_WitnessSearchNNQuotient(benchmark::State& state) {
  WitnessSearchOptions options;
  options.spec.max_nodes = static_cast<std::size_t>(state.range(0));
  options.spec.nlocations = 1;
  options.spec.include_nop = false;
  options.quotient = true;  // one representative per class
  for (auto _ : state) {
    const auto w =
        find_nonconstructibility_witness(*builtin_model(kSuiteNN), options);
    benchmark::DoNotOptimize(w.has_value());
  }
}
BENCHMARK(BM_WitnessSearchNNQuotient)->Arg(3)->Arg(4);

void BM_WitnessSearchLcComesUpEmpty(benchmark::State& state) {
  WitnessSearchOptions options;
  options.spec.max_nodes = static_cast<std::size_t>(state.range(0));
  options.spec.nlocations = 1;
  options.spec.include_nop = false;
  options.quotient = false;  // labeled baseline
  for (auto _ : state) {
    const auto w = find_nonconstructibility_witness(
        *builtin_model(kSuiteLC), options);
    benchmark::DoNotOptimize(w.has_value());
  }
}
BENCHMARK(BM_WitnessSearchLcComesUpEmpty)->Arg(3)->Arg(4);

void BM_RestrictModel(benchmark::State& state) {
  // The universe materialization both fixpoint drivers share; subtract
  // this from the fixpoint timings to see the pruning cost itself.
  const auto spec = thin_spec(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto set =
        BoundedModelSet::restrict_model(*builtin_model(kSuiteNN), spec);
    benchmark::DoNotOptimize(set.live_count());
  }
}
BENCHMARK(BM_RestrictModel)->Arg(4)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_FixpointSequential(benchmark::State& state) {
  const auto spec = thin_spec(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    FixpointStats stats;
    const auto set =
        constructible_version(*builtin_model(kSuiteNN), spec, &stats);
    benchmark::DoNotOptimize(set.live_count());
    state.counters["pairs"] = static_cast<double>(stats.initial_pairs);
    state.counters["pruned"] = static_cast<double>(stats.pruned);
  }
}
// Arg(6) is the headline before/after comparison with
// BM_FixpointQuotient/6 (~70s labeled vs ~10s quotient on one core);
// CI's quick smoke filters it out.
BENCHMARK(BM_FixpointSequential)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_RestrictModelQuotient(benchmark::State& state) {
  const auto spec = thin_spec(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto set = BoundedModelSet::restrict_model_quotient(
        *builtin_model(kSuiteNN), spec);
    benchmark::DoNotOptimize(set.live_count());
  }
}
BENCHMARK(BM_RestrictModelQuotient)
    ->Arg(4)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond);

void BM_FixpointQuotient(benchmark::State& state) {
  const auto spec = thin_spec(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    FixpointStats stats;
    const auto set =
        constructible_version_quotient(*builtin_model(kSuiteNN), spec, &stats);
    benchmark::DoNotOptimize(set.live_count());
    state.counters["pairs"] = static_cast<double>(stats.initial_pairs);
    state.counters["pruned"] = static_cast<double>(stats.pruned);
  }
}
BENCHMARK(BM_FixpointQuotient)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_FixpointParallel(benchmark::State& state) {
  const auto spec = thin_spec(static_cast<std::size_t>(state.range(0)));
  ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    const auto set =
        constructible_version_parallel(*builtin_model(kSuiteNN), spec, pool);
    benchmark::DoNotOptimize(set.live_count());
  }
}
BENCHMARK(BM_FixpointParallel)
    ->Args({5, 2})
    ->Args({5, 4})
    ->Args({5, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The worklist engine with its counters exported.
void export_worklist_counters(benchmark::State& state,
                              const FixpointStats& stats) {
  state.counters["pairs"] = static_cast<double>(stats.initial_pairs);
  state.counters["pruned"] = static_cast<double>(stats.pruned);
  state.counters["support_edges"] = static_cast<double>(stats.support_edges);
  state.counters["repairs"] = static_cast<double>(stats.repairs);
  state.counters["rejudged"] = static_cast<double>(stats.rejudged_pairs);
  state.counters["worklist_peak"] = static_cast<double>(stats.worklist_peak);
}

void BM_FixpointWorklist(benchmark::State& state) {
  const auto spec = thin_spec(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    FixpointStats stats;
    const auto set =
        constructible_version(*builtin_model(kSuiteNN), spec, &stats);
    benchmark::DoNotOptimize(set.live_count());
    export_worklist_counters(state, stats);
  }
}
BENCHMARK(BM_FixpointWorklist)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_FixpointWorklistQuotient(benchmark::State& state) {
  const auto spec = thin_spec(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    FixpointStats stats;
    const auto set =
        constructible_version_quotient(*builtin_model(kSuiteNN), spec, &stats);
    benchmark::DoNotOptimize(set.live_count());
    export_worklist_counters(state, stats);
  }
}
BENCHMARK(BM_FixpointWorklistQuotient)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_FixpointWorklistQuotientParallel(benchmark::State& state) {
  const auto spec = thin_spec(static_cast<std::size_t>(state.range(0)));
  ThreadPool pool(4);
  for (auto _ : state) {
    FixpointStats stats;
    const auto set = constructible_version_quotient_parallel(
        *builtin_model(kSuiteNN), spec, pool, &stats);
    benchmark::DoNotOptimize(set.live_count());
    export_worklist_counters(state, stats);
  }
}
BENCHMARK(BM_FixpointWorklistQuotientParallel)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ExtensionEnumeration(benchmark::State& state) {
  Rng rng(1);
  const Dag d = gen::random_dag(static_cast<std::size_t>(state.range(0)),
                                0.3, rng);
  const Computation c(d, std::vector<Op>(d.node_count(), Op::read(0)));
  const auto alphabet = op_alphabet(1);
  for (auto _ : state) {
    std::size_t n = 0;
    for_each_one_node_extension(c, alphabet, state.range(1) != 0,
                                [&](const Computation&) {
                                  ++n;
                                  return true;
                                });
    benchmark::DoNotOptimize(n);
    state.counters["extensions"] = static_cast<double>(n);
  }
}
BENCHMARK(BM_ExtensionEnumeration)->Args({8, 0})->Args({8, 1})->Args({12, 1});

void BM_CanonicalEncoding(benchmark::State& state) {
  Rng rng(2);
  const Dag d = gen::random_dag(static_cast<std::size_t>(state.range(0)),
                                0.4, rng);
  std::vector<Op> ops;
  for (NodeId u = 0; u < d.node_count(); ++u)
    ops.push_back(u % 2 == 0 ? Op::read(0) : Op::write(0));
  const Computation c(d, ops);
  for (auto _ : state)
    benchmark::DoNotOptimize(canonical_encoding(c));
}
BENCHMARK(BM_CanonicalEncoding)->Arg(5)->Arg(7);

void BM_CanonicalFormRefined(benchmark::State& state) {
  // Same inputs as BM_CanonicalEncoding where ranges overlap; the
  // refinement-based canonicalizer also handles sizes far beyond the
  // factorial oracle's 9-node ceiling.
  Rng rng(2);
  const Dag d = gen::random_dag(static_cast<std::size_t>(state.range(0)),
                                0.4, rng);
  std::vector<Op> ops;
  for (NodeId u = 0; u < d.node_count(); ++u)
    ops.push_back(u % 2 == 0 ? Op::read(0) : Op::write(0));
  const Computation c(d, ops);
  for (auto _ : state)
    benchmark::DoNotOptimize(canonical_form(c).encoding);
}
BENCHMARK(BM_CanonicalFormRefined)->Arg(5)->Arg(7)->Arg(12)->Arg(16);

}  // namespace
}  // namespace ccmm
