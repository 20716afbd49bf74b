// WN⁺ (WN with the freshness axiom) and the constructibility landscape
// around the paper's WN prose claim; plus separator mining and
// completeness checking.
#include "models/wn_plus.hpp"

#include <gtest/gtest.h>

#include "construct/constructibility.hpp"
#include "construct/witness.hpp"
#include "enumerate/separators.hpp"
#include "models/compile.hpp"
#include "helpers.hpp"

namespace ccmm {
namespace {

TEST(WnPlus, FreshnessAxiomSemantics) {
  // w ≺ r with r observing ⊥ violates freshness; concurrent w does not.
  ComputationBuilder b1;
  const NodeId w1 = b1.write(0);
  b1.read(0, {w1});
  const Computation seq = std::move(b1).build();
  ObserverFunction stale(2);
  stale.set(0, 0, 0);
  EXPECT_TRUE(is_valid_observer(seq, stale));
  EXPECT_FALSE(observer_is_fresh(seq, stale));
  EXPECT_FALSE(wn_plus_consistent(seq, stale));

  ComputationBuilder b2;
  b2.write(0);
  b2.read(0);
  const Computation par = std::move(b2).build();
  ObserverFunction ok(2);
  ok.set(0, 0, 0);
  EXPECT_TRUE(observer_is_fresh(par, ok));  // the write is concurrent
  EXPECT_TRUE(wn_plus_consistent(par, ok));
}

TEST(WnPlus, SitsBetweenLcAndWn) {
  // LC ⊆ WN⁺ ⊆ WN on an exhaustive universe.
  UniverseSpec spec;
  spec.max_nodes = 4;
  spec.nlocations = 1;
  spec.include_nop = false;
  const auto lc = builtin_model(kSuiteLC);
  const auto wnp = builtin_model(kSuiteWNPlus);
  std::size_t in_lc = 0, in_wnp = 0, in_wn = 0;
  for_each_pair(spec, [&](const Computation& c, const ObserverFunction& f) {
    const bool a = lc->contains(c, f);
    const bool b = wnp->contains(c, f);
    const bool d = qdag_consistent(c, f, DagPred::kWN);
    in_lc += a;
    in_wnp += b;
    in_wn += d;
    if (a) {
      EXPECT_TRUE(b);  // LC ⊆ WN+
    }
    if (b) {
      EXPECT_TRUE(d);  // WN+ ⊆ WN
    }
    return true;
  });
  EXPECT_LT(in_lc, in_wnp);
  EXPECT_LT(in_wnp, in_wn);
}

TEST(WnPlus, FigurePairsClassified) {
  // Figure 3 (in WN) is *not* fresh: D observes A although B ≺ D.
  const auto f3 = test::figure3_pair();
  EXPECT_TRUE(qdag_consistent(f3.c, f3.phi, DagPred::kWN));
  EXPECT_TRUE(wn_plus_consistent(f3.c, f3.phi));  // fresh: no ⊥ anywhere
  // Figure 4's pair has no ⊥ either, so it is fresh and in NN ⊆ WN.
  const auto w = figure4_witness();
  EXPECT_TRUE(wn_plus_consistent(w.c, w.phi));
  EXPECT_TRUE(builtin_model(kSuiteNNPlus)->contains(w.c, w.phi));
}

TEST(WnPlus, ConstructibilityStatusUpToBound) {
  // The experiment the model exists for: with the ⊥ escape closed, is
  // WN+ constructible? The search answers mechanically (see the fig4
  // bench for the headline run; here a smaller bound keeps tests fast).
  WitnessSearchOptions options;
  options.spec.max_nodes = 4;
  options.spec.nlocations = 1;
  options.spec.include_nop = false;
  const auto w =
      find_nonconstructibility_witness(*builtin_model(kSuiteWNPlus), options);
  // The Figure-4 pair is fresh and in WN+; its stuck extension under NN
  // is NOT stuck under WN+'s weaker triple rule, but freshness forbids
  // the ⊥ answer, so only write-observing answers remain — which WN+'s
  // triple rule then constrains. The search decides:
  if (w.has_value()) {
    EXPECT_TRUE(validate_witness(*builtin_model(kSuiteWNPlus), *w));
  }
  SUCCEED();  // status documented by the bench output either way
}

TEST(Separators, MinimalWwVsWnSeparatorIsFigure2Sized) {
  UniverseSpec spec;
  spec.max_nodes = 4;
  spec.nlocations = 1;
  spec.include_nop = false;
  // A pair in WW (weaker) but not WN (stronger): Figure-2-like.
  const auto sep = find_minimal_separator(*builtin_model(kSuiteWN),
                                          *builtin_model(kSuiteWW), spec);
  ASSERT_TRUE(sep.has_value());
  EXPECT_TRUE(builtin_model(kSuiteWW)->contains(sep->c, sep->phi));
  EXPECT_FALSE(builtin_model(kSuiteWN)->contains(sep->c, sep->phi));
  EXPECT_LE(sep->c.node_count(), 4u);
}

TEST(Separators, LcVsNnSeparatorMatchesFigure4Size) {
  UniverseSpec spec;
  spec.max_nodes = 4;
  spec.nlocations = 1;
  spec.include_nop = false;
  const auto sep = find_minimal_separator(
      *builtin_model(kSuiteLC), *builtin_model(kSuiteNN), spec);
  ASSERT_TRUE(sep.has_value());
  EXPECT_EQ(sep->c.node_count(), 4u);  // the Figure-4 separator is minimal
}

TEST(Separators, NoneBetweenEqualModels) {
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 1;
  // SC = LC with one location.
  const auto sep = find_minimal_separator(*builtin_model(kSuiteSC),
                                          *builtin_model(kSuiteLC), spec);
  EXPECT_FALSE(sep.has_value());
}

TEST(Completeness, StandardModelsAreComplete) {
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 1;
  for (const MemoryModel* m : std::initializer_list<const MemoryModel*>{
           builtin_model(kSuiteSC).get(), builtin_model(kSuiteLC).get(),
           builtin_model(kSuiteNN).get(), builtin_model(kSuiteWNPlus).get()}) {
    EXPECT_FALSE(find_incompleteness_witness(*m, spec).has_value())
        << m->name();
  }
}

TEST(Completeness, ArtificialIncompleteModelCaught) {
  // A model that rejects every pair whose computation has 2 nodes.
  const PredicateModel broken(
      "no-two-node", [](const Computation& c, const ObserverFunction& phi) {
        return c.node_count() != 2 && is_valid_observer(c, phi);
      });
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 1;
  const auto w = find_incompleteness_witness(broken, spec);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->node_count(), 2u);
}

}  // namespace
}  // namespace ccmm
