// Pairwise vs SP-bags vs oracle race detection. The pairwise engine
// pays for the dag's transitive closure (O(n·m/64) bitset build) plus a
// probe per same-location pair; SP-bags replays the series-parallel
// parse with a disjoint-set union, no closure, but still tests each
// access against every earlier access to its location; the oracle
// engine (analyze/race_oracle.hpp) proves per-location total orders
// with O(1) precedence queries and only enumerates the racy locations;
// summarize_races, the lints' scan, counts them and keeps the k
// smallest.
// "Cold" rebuilds the computation each iteration (what a caller
// starting from a fresh trace pays); "warm" reuses a cached closure
// (the engine's steady state).
#include <benchmark/benchmark.h>

#include <map>

#include "proc/random_program.hpp"
#include "analyze/race_oracle.hpp"
#include "analyze/sp_bags.hpp"
#include "trace/race.hpp"

namespace {

using namespace ccmm;

struct Case {
  Computation sp;            // carries the SP parse
  std::vector<Edge> edges;   // raw material to rebuild without a closure
  std::vector<Op> ops;
  Computation warm;          // closure prebuilt, no SP parse
  std::size_t races = 0;
};

proc::RandomCilkOptions case_options(std::size_t n) {
  proc::RandomCilkOptions options;
  options.target_ops = n;
  options.nlocations = std::max<std::size_t>(4, n / 8);
  options.spawn_prob = 0.20;
  options.call_prob = 0.05;
  options.sync_prob = 0.12;
  options.write_prob = 0.35;
  options.max_live_strands = 256;
  return options;
}

const Case& case_for(std::size_t n) {
  static std::map<std::size_t, Case> cache;
  const auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  Rng rng(0xC11Cu + n);
  Case c;
  c.sp = proc::random_cilk(case_options(n), rng);
  c.edges = c.sp.dag().edges();
  c.ops = c.sp.ops();
  c.warm = Computation(Dag(c.sp.node_count(), c.edges), c.ops);
  c.warm.dag().ensure_closure();
  c.races = find_races_pairwise(c.warm).size();
  return cache.emplace(n, std::move(c)).first->second;
}

/// The oracle engine's cases must scale to n = 2²⁰, where neither the
/// closure (O(n²) bits) nor the exhaustive pairwise count is buildable
/// — same generator profile as case_for, nothing precomputed.
struct OracleCase {
  Computation sp;       // carries the SP parse (sp-order oracle)
  Computation general;  // same dag, parse dropped (auto: closure/chain)
  std::size_t races = 0;
};

const OracleCase& oracle_case_for(std::size_t n) {
  static std::map<std::size_t, OracleCase> cache;
  const auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  Rng rng(0xC11Cu + n);
  OracleCase c;
  c.sp = proc::random_cilk(case_options(n), rng);
  c.general =
      Computation(Dag(c.sp.node_count(), c.sp.dag().edges()), c.sp.ops());
  c.races = analyze::find_races_oracle(c.sp).size();
  return cache.emplace(n, std::move(c)).first->second;
}

void BM_FindRacesPairwiseCold(benchmark::State& state) {
  const Case& c = case_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Computation fresh(Dag(c.ops.size(), c.edges), c.ops);
    benchmark::DoNotOptimize(find_races_pairwise(fresh));
  }
  state.counters["races"] = static_cast<double>(c.races);
}

void BM_FindRacesPairwiseWarm(benchmark::State& state) {
  const Case& c = case_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(find_races_pairwise(c.warm));
  state.counters["races"] = static_cast<double>(c.races);
}

void BM_FindRacesSpBags(benchmark::State& state) {
  const Case& c = case_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(analyze::find_races_sp(c.sp));
  state.counters["races"] = static_cast<double>(c.races);
}

void BM_HasRaceSpBags(benchmark::State& state) {
  const Case& c = case_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(analyze::has_race_sp(c.sp));
}

void BM_HasRacePairwise(benchmark::State& state) {
  const Case& c = case_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Computation fresh(Dag(c.ops.size(), c.edges), c.ops);
    benchmark::DoNotOptimize(has_race(fresh));
  }
}

/// The tentpole path: SP-order oracle, per-location total-order proofs,
/// enumeration only where phase 1 failed. The 2²⁰-node case is the
/// million-node headline — the closure engines cannot run it at all.
void BM_FindRacesOracle(benchmark::State& state) {
  const OracleCase& c = oracle_case_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(analyze::find_races_oracle(c.sp));
  state.counters["races"] = static_cast<double>(c.races);
}

/// Same scan on the parse-less rebuild: make_oracle falls back to the
/// closure/chain tier, the general-dag regime. At 16384 nodes the auto
/// oracle is the dag's own cached closure, frozen before timing so the
/// row times the scan; BM_FindRacesOracleGeneralClosure times the
/// closure build.
void BM_FindRacesOracleGeneral(benchmark::State& state) {
  const OracleCase& c = oracle_case_for(static_cast<std::size_t>(state.range(0)));
  c.general.dag().ensure_closure();
  for (auto _ : state)
    benchmark::DoNotOptimize(analyze::find_races_oracle(c.general));
  state.counters["races"] = static_cast<double>(c.races);
}

/// The closure the general-dag scan reads, built cold: a fresh dag of
/// the case's edges and its O(n·m/64) reachability bitsets.
void BM_FindRacesOracleGeneralClosure(benchmark::State& state) {
  const OracleCase& c = oracle_case_for(static_cast<std::size_t>(state.range(0)));
  const std::vector<Edge> edges = c.general.dag().edges();
  for (auto _ : state) {
    const Dag fresh(c.general.node_count(), edges);
    fresh.ensure_closure();
    benchmark::DoNotOptimize(fresh.closure_frozen());
  }
}

/// The scan both lints run: the exact race count and the 64 smallest
/// races (summarize_races), on BM_FindRacesOracle's instances, where
/// the count is an inversion count of the SP-order labels ...
void BM_RaceSummary(benchmark::State& state) {
  const OracleCase& c = oracle_case_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(analyze::summarize_races(c.sp, 64));
  state.counters["races"] = static_cast<double>(c.races);
}

/// ... and on BM_FindRacesOracleGeneral's, where the closure/chain
/// phases count by popcount and keep only the candidates that can
/// still enter the 64 smallest. The auto oracle there is the dag's own
/// cached closure, so it is built before timing, as there: otherwise
/// the first scan of the case pays it (~1 s at 16384 nodes) and
/// whichever benchmark runs later does not.
void BM_RaceSummaryGeneral(benchmark::State& state) {
  const OracleCase& c = oracle_case_for(static_cast<std::size_t>(state.range(0)));
  c.general.dag().ensure_closure();
  for (auto _ : state)
    benchmark::DoNotOptimize(analyze::summarize_races(c.general, 64));
  state.counters["races"] = static_cast<double>(c.races);
}

void BM_FindFirstRaceOracle(benchmark::State& state) {
  const OracleCase& c = oracle_case_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(analyze::find_first_race(c.sp));
}

}  // namespace

BENCHMARK(BM_FindRacesPairwiseCold)->Arg(256)->Arg(1024)->Arg(4096)->Arg(10000);
BENCHMARK(BM_FindRacesPairwiseWarm)->Arg(256)->Arg(1024)->Arg(4096)->Arg(10000);
BENCHMARK(BM_FindRacesSpBags)->Arg(256)->Arg(1024)->Arg(4096)->Arg(10000);
BENCHMARK(BM_HasRaceSpBags)->Arg(10000);
BENCHMARK(BM_HasRacePairwise)->Arg(10000);
BENCHMARK(BM_FindRacesOracle)->Arg(16384)->Arg(1048576);
BENCHMARK(BM_FindRacesOracleGeneral)->Arg(16384);
BENCHMARK(BM_FindRacesOracleGeneralClosure)->Arg(16384);
BENCHMARK(BM_RaceSummary)->Arg(16384)->Arg(1048576);
BENCHMARK(BM_RaceSummaryGeneral)->Arg(16384);
BENCHMARK(BM_FindFirstRaceOracle)->Arg(1048576);
