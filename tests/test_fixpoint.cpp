// Theorem 23: LC = NN*, verified by computing the bounded greatest
// fixpoint Δ* of NN and comparing with LC per size class; and the
// worklist engine, labeled and quotient, diffed pair for pair against
// the definitional reference (reference_fixpoint.hpp) on all six models.
#include "construct/fixpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string_view>
#include <utility>

#include "construct/witness.hpp"
#include "helpers.hpp"
#include "models/compile.hpp"
#include "reference_fixpoint.hpp"

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

TEST(BoundedModelSet, RestrictionCountsMembers) {
  const auto spec = thin_spec(3);
  const BoundedModelSet lc =
      BoundedModelSet::restrict_model(*builtin_model(kSuiteLC), spec);
  const BoundedModelSet nn =
      BoundedModelSet::restrict_model(*builtin_model(kSuiteNN), spec);
  EXPECT_GT(lc.live_count(), 0u);
  EXPECT_GE(nn.live_count(), lc.live_count());  // LC ⊆ NN (Theorem 22)
  EXPECT_EQ(lc.live_count_at_size(0), 1u);      // (ε, Φ_ε)
}

TEST(BoundedModelSet, ContainsPairAgreesWithModel) {
  const auto spec = thin_spec(3);
  const BoundedModelSet lc =
      BoundedModelSet::restrict_model(*builtin_model(kSuiteLC), spec);
  std::size_t live = 0;
  lc.for_each_live([&](const Computation& c, const ObserverFunction& phi) {
    EXPECT_TRUE(lc.contains_pair(c, phi));
    EXPECT_TRUE(builtin_model(kSuiteLC)->contains(c, phi));
    ++live;
    return true;
  });
  EXPECT_EQ(live, lc.live_count());
}

TEST(Fixpoint, Theorem23_NNStarCollapsesToLC) {
  // Horizon 5 decides all sizes <= 4 (size-5 pairs are boundary).
  const auto spec = thin_spec(5);
  FixpointStats stats;
  const BoundedModelSet nn_star =
      constructible_version(*builtin_model(kSuiteNN), spec, &stats);
  EXPECT_GT(stats.pruned, 0u);  // NN \ LC pairs exist at size 4 and die
  EXPECT_LT(stats.final_pairs, stats.initial_pairs);

  const auto cmp =
      compare_with_model(nn_star, *builtin_model(kSuiteLC));
  for (const auto& row : cmp) {
    if (row.size >= 5) continue;  // boundary sizes carry no information
    EXPECT_TRUE(row.equal) << "NN* != LC at size " << row.size << " ("
                           << row.fixpoint_pairs << " vs "
                           << row.reference_pairs << ")";
  }
}

TEST(Fixpoint, Figure4PairIsPruned) {
  // The NN \ LC witness pair must be dead in the fixpoint.
  const auto spec = thin_spec(5);
  const BoundedModelSet nn_star =
      constructible_version(*builtin_model(kSuiteNN), spec);
  const NonconstructibilityWitness w = figure4_witness();
  EXPECT_TRUE(builtin_model(kSuiteNN)->contains(w.c, w.phi));
  EXPECT_FALSE(nn_star.contains_pair(w.c, w.phi));
  // while its LC siblings survive: the last-writer observer does.
  const auto lw = builtin_model(kSuiteLC)->any_observer(w.c);
  ASSERT_TRUE(lw.has_value());
  EXPECT_TRUE(nn_star.contains_pair(w.c, *lw));
}

TEST(Fixpoint, ConstructibleModelIsItsOwnFixpoint) {
  // LC is constructible (Theorem 19): nothing may be pruned.
  const auto spec = thin_spec(4);
  FixpointStats stats;
  const BoundedModelSet lc_star = constructible_version(
      *builtin_model(kSuiteLC), spec, &stats);
  EXPECT_EQ(stats.pruned, 0u);
  EXPECT_EQ(stats.initial_pairs, stats.final_pairs);
  const auto cmp =
      compare_with_model(lc_star, *builtin_model(kSuiteLC));
  for (const auto& row : cmp) EXPECT_TRUE(row.equal) << row.size;
}

TEST(Fixpoint, Theorem9_FixpointIsSelfSupporting) {
  // 9.1: Δ* ⊆ Δ (by construction of restrict+prune, checked anyway);
  // 9.2: every live pair below the boundary answers every in-universe
  // extension with a live pair — the defining fixpoint property.
  const auto spec = thin_spec(4);
  const BoundedModelSet nn_star =
      constructible_version(*builtin_model(kSuiteNN), spec);
  nn_star.for_each_live([&](const Computation& c,
                            const ObserverFunction& phi) {
    EXPECT_TRUE(builtin_model(kSuiteNN)->contains(c, phi));  // 9.1
    if (c.node_count() >= spec.max_nodes) return true;
    EXPECT_TRUE(test::answers_every_extension(nn_star, c, phi));  // 9.2
    return true;
  });
}

TEST(Fixpoint, ParallelMatchesSequential) {
  const auto spec = thin_spec(5);
  ThreadPool pool(4);
  const BoundedModelSet seq =
      constructible_version(*builtin_model(kSuiteNN), spec);
  FixpointStats pstats;
  const BoundedModelSet par =
      constructible_version_parallel(*builtin_model(kSuiteNN), spec, pool,
                                     &pstats);
  EXPECT_EQ(seq.live_count(), par.live_count());
  for (std::size_t n = 0; n <= spec.max_nodes; ++n)
    EXPECT_EQ(seq.live_count_at_size(n), par.live_count_at_size(n)) << n;
  // Identical live sets, pair by pair.
  seq.for_each_live([&](const Computation& c, const ObserverFunction& phi) {
    EXPECT_TRUE(par.contains_pair(c, phi));
    return true;
  });
  EXPECT_EQ(pstats.final_pairs, seq.live_count());
}

TEST(Fixpoint, StatsRoundsAreReported) {
  const auto spec = thin_spec(3);
  FixpointStats stats;
  (void)constructible_version(*builtin_model(kSuiteNN), spec, &stats);
  EXPECT_GE(stats.rounds, 1u);
}

/// Serialize the full labeled membership a fixpoint stands for: every
/// labeled pair of the universe it contains, in sorted encoding order.
/// Labeled and quotient results must serialize byte-identically.
std::string labeled_image(const BoundedModelSet& set, const UniverseSpec& spec) {
  std::vector<std::string> lines;
  for_each_pair(spec, [&](const Computation& c, const ObserverFunction& phi) {
    if (set.contains_pair(c, phi))
      lines.push_back(encode_computation(c) + '\x1f' + encode_observer(phi));
    return true;
  });
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out.push_back('\n');
  }
  return out;
}

TEST(Fixpoint, QuotientMatchesLabeledByteForByte) {
  // The acceptance check of the quotient engine: identical Δ*
  // membership over the whole labeled universe, identical
  // multiplicity-weighted censuses, identical pruning stats.
  for (const UniverseSpec& spec : {thin_spec(3), thin_spec(4)}) {
    FixpointStats lstats, qstats;
    const BoundedModelSet labeled =
        constructible_version(*builtin_model(kSuiteNN), spec, &lstats);
    const BoundedModelSet quotient =
        constructible_version_quotient(*builtin_model(kSuiteNN), spec, &qstats);
    EXPECT_TRUE(quotient.quotient());
    EXPECT_EQ(lstats.initial_pairs, qstats.initial_pairs);
    EXPECT_EQ(lstats.final_pairs, qstats.final_pairs);
    EXPECT_EQ(lstats.pruned, qstats.pruned);
    for (std::size_t n = 0; n <= spec.max_nodes; ++n)
      EXPECT_EQ(labeled.live_count_at_size(n),
                quotient.live_count_at_size(n))
          << n;
    EXPECT_EQ(labeled_image(labeled, spec), labeled_image(quotient, spec));
  }
}

TEST(Fixpoint, QuotientMatchesLabeledWithWriteCapUnset) {
  // Same check on a universe without the write-per-location filter, so
  // no extension ever leaves the universe (a different code path: every
  // extension constrains).
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 2;
  FixpointStats lstats, qstats;
  const BoundedModelSet labeled =
      constructible_version(*builtin_model(kSuiteNN), spec, &lstats);
  const BoundedModelSet quotient =
      constructible_version_quotient(*builtin_model(kSuiteNN), spec, &qstats);
  EXPECT_EQ(lstats.final_pairs, qstats.final_pairs);
  EXPECT_EQ(lstats.pruned, qstats.pruned);
  EXPECT_EQ(labeled_image(labeled, spec), labeled_image(quotient, spec));
}

TEST(Fixpoint, QuotientParallelMatchesSequentialQuotient) {
  const auto spec = thin_spec(4);
  ThreadPool pool(4);
  FixpointStats qstats, pstats;
  const BoundedModelSet seq =
      constructible_version_quotient(*builtin_model(kSuiteNN), spec, &qstats);
  const BoundedModelSet par =
      constructible_version_quotient_parallel(*builtin_model(kSuiteNN), spec,
                                              pool, &pstats);
  EXPECT_EQ(qstats.final_pairs, pstats.final_pairs);
  EXPECT_EQ(labeled_image(seq, spec), labeled_image(par, spec));
}

TEST(Fixpoint, RestrictedEntriesArriveFrozen) {
  // The parallel drivers assert this instead of calling ensure_closure()
  // from worker threads: a dirty lazy closure on a shared dag is a data
  // race (two tasks building desc_/anc_ concurrently).
  const auto spec = thin_spec(3);
  const BoundedModelSet labeled =
      BoundedModelSet::restrict_model(*builtin_model(kSuiteNN), spec);
  for (const auto& [key, e] : labeled.entries())
    EXPECT_TRUE(e.c.dag().closure_frozen()) << key;
  const BoundedModelSet quotient =
      BoundedModelSet::restrict_model_quotient(*builtin_model(kSuiteNN), spec);
  for (const auto& [key, e] : quotient.entries())
    EXPECT_TRUE(e.c.dag().closure_frozen()) << key;
}

TEST(Fixpoint, QuotientParallelTwoLocationStress) {
  // Exercised under TSan in CI: stage 1 stores shared extension
  // computations that parallel stage-2 tasks read concurrently; their
  // closures must be frozen before the fan-out.
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 2;
  spec.include_nop = false;
  ThreadPool pool(8);
  FixpointStats qstats, pstats;
  const BoundedModelSet seq =
      constructible_version_quotient(*builtin_model(kSuiteNN), spec, &qstats);
  const BoundedModelSet par =
      constructible_version_quotient_parallel(*builtin_model(kSuiteNN), spec,
                                              pool, &pstats);
  EXPECT_EQ(qstats.final_pairs, pstats.final_pairs);
  EXPECT_EQ(labeled_image(seq, spec), labeled_image(par, spec));
}

/// Serialize a result's entry table exactly: key, multiplicity, per-pair
/// liveness, and every stored observer, in sorted key order. Two engines
/// produce "byte-identical results" iff these strings match.
std::string entries_signature(const BoundedModelSet& set) {
  std::vector<std::string> lines;
  for (const auto& [key, e] : set.entries()) {
    std::string line = key;
    line += '\x1e';
    line += std::to_string(e.multiplicity);
    for (std::size_t i = 0; i < e.phis.size(); ++i) {
      line += '\x1f';
      line.push_back(e.alive[i] ? '1' : '0');
      line += encode_observer(e.phis[i]);
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out.push_back('\n');
  }
  return out;
}

/// The six models of the paper's hierarchy (Figure 1).
std::vector<std::pair<const char*, std::shared_ptr<const MemoryModel>>>
six_models() {
  return {{"SC", builtin_model(kSuiteSC)},
          {"LC", builtin_model(kSuiteLC)},
          {"NN", builtin_model(kSuiteNN)},
          {"NW", builtin_model(kSuiteNW)},
          {"WN", builtin_model(kSuiteWN)},
          {"WW", builtin_model(kSuiteWW)}};
}

/// Pair-for-pair agreement with the reference: every pair of the
/// model's labeled restriction is live in `got` iff it is live in
/// `ref`. Both hold the same restriction, so this is set equality.
void expect_matches_reference(const BoundedModelSet& got,
                              const BoundedModelSet& ref,
                              std::string_view label) {
  std::size_t mismatches = 0;
  for (const auto& [key, e] : ref.entries())
    for (std::size_t i = 0; i < e.phis.size(); ++i)
      if (got.contains_pair(e.c, e.phis[i]) != (e.alive[i] != 0))
        ++mismatches;
  EXPECT_EQ(mismatches, 0u) << label;
  EXPECT_EQ(got.live_count(), ref.live_count()) << label;
}

TEST(Fixpoint, WorklistMatchesReferenceSixModels) {
  // Both drivers (labeled and quotient) against the definitional
  // reference, all six models, exhaustive n <= 5. On smaller universes
  // no model prunes a single pair; at n = 5 NN and NW do, and the test
  // demands it so the comparison cannot go vacuous.
  const auto spec = thin_spec(5);
  for (const auto& [name, model] : six_models()) {
    std::size_t ref_pruned = 0;
    const BoundedModelSet ref =
        test::reference_fixpoint(*model, spec, &ref_pruned);
    FixpointStats ls, qs;
    const BoundedModelSet labeled = constructible_version(*model, spec, &ls);
    const BoundedModelSet quotient =
        constructible_version_quotient(*model, spec, &qs);
    EXPECT_EQ(entries_signature(labeled), entries_signature(ref)) << name;
    expect_matches_reference(quotient, ref, name);
    EXPECT_EQ(ls.pruned, ref_pruned) << name;
    EXPECT_EQ(qs.pruned, ref_pruned) << name;
    if (ls.pruned > 0) {
      EXPECT_GT(ls.support_edges, 0u) << name;
    }
    if (qs.pruned > 0) {
      EXPECT_GT(qs.support_edges, 0u) << name;
    }
    const std::string_view n = name;
    if (n == "NN" || n == "NW") {
      EXPECT_GT(ref_pruned, 0u) << name;
    }
  }
}

TEST(Fixpoint, WorklistKillOrderIndependence) {
  // The gfp is kill-schedule-independent (kills are monotone), so
  // scrambling every propagation wave must not change the result.
  const auto spec = thin_spec(5);
  FixpointStats bs;  // seed 0: FIFO order
  const BoundedModelSet reference =
      constructible_version_quotient(*builtin_model(kSuiteNN), spec, &bs);
  const std::string ref_sig = entries_signature(reference);
  EXPECT_GT(bs.pruned, 0u);
  for (const std::uint64_t seed :
       {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{12345},
        std::uint64_t{0xdeadbeefULL}}) {
    FixpointOptions opt;
    opt.scramble_seed = seed;
    FixpointStats ss;
    const BoundedModelSet scrambled =
        constructible_version_quotient(*builtin_model(kSuiteNN), spec, &ss,
                                       opt);
    EXPECT_EQ(bs.final_pairs, ss.final_pairs) << seed;
    EXPECT_EQ(bs.pruned, ss.pruned) << seed;
    EXPECT_EQ(ref_sig, entries_signature(scrambled)) << seed;
  }
}

TEST(Fixpoint, ParallelRestrictQuotientMatchesSequential) {
  // The pool-parallel shard enumeration must build the exact entry
  // table the sequential path builds (classes never cross dag shards,
  // so the merge is collision-free).
  const auto spec = thin_spec(4);
  ThreadPool pool(4);
  const BoundedModelSet seq =
      BoundedModelSet::restrict_model_quotient(*builtin_model(kSuiteNN), spec);
  const BoundedModelSet par =
      BoundedModelSet::restrict_model_quotient(*builtin_model(kSuiteNN), spec,
                                               &pool);
  EXPECT_EQ(seq.entries().size(), par.entries().size());
  EXPECT_EQ(entries_signature(seq), entries_signature(par));
}

TEST(Fixpoint, WorklistQuotientParallelStressMatches) {
  // TSan CI target (the *Parallel* filter): the worklist engine under a
  // wide pool on a two-location universe, against the sequential
  // worklist result. Stage-1 stores shared frozen computations that
  // stage-2 tasks judge concurrently; support-edge recording and kill
  // propagation stay serial.
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 2;
  spec.include_nop = false;
  ThreadPool pool(8);
  FixpointStats ss, ps;
  const BoundedModelSet seq =
      constructible_version_quotient(*builtin_model(kSuiteNN), spec, &ss);
  const BoundedModelSet par = constructible_version_quotient_parallel(
      *builtin_model(kSuiteNN), spec, pool, &ps);
  EXPECT_EQ(ss.final_pairs, ps.final_pairs);
  EXPECT_EQ(ss.pruned, ps.pruned);
  EXPECT_EQ(entries_signature(seq), entries_signature(par));
}

TEST(Fixpoint, QuotientConstructibleModelIsItsOwnFixpoint) {
  const auto spec = thin_spec(4);
  FixpointStats stats;
  const BoundedModelSet lc_star = constructible_version_quotient(
      *builtin_model(kSuiteLC), spec, &stats);
  EXPECT_EQ(stats.pruned, 0u);
  const auto cmp =
      compare_with_model(lc_star, *builtin_model(kSuiteLC));
  for (const auto& row : cmp) EXPECT_TRUE(row.equal) << row.size;
}

}  // namespace
}  // namespace ccmm
