// Constructibility (Definition 6, Theorems 10/12/19) and the paper's
// Figure 4: NN, NW and WN are not constructible; WW, LC and SC are.
#include "construct/constructibility.hpp"

#include <gtest/gtest.h>

#include "construct/witness.hpp"
#include "helpers.hpp"
#include "models/compile.hpp"

namespace ccmm {
namespace {

WitnessSearchOptions small_options(std::size_t max_nodes,
                                   bool augment_only = false) {
  WitnessSearchOptions o;
  o.spec.max_nodes = max_nodes;
  o.spec.nlocations = 1;
  o.spec.include_nop = false;
  o.augment_only = augment_only;
  return o;
}

TEST(Constructibility, Figure4WitnessIsGenuine) {
  const NonconstructibilityWitness w = figure4_witness();
  EXPECT_TRUE(validate_witness(*builtin_model(kSuiteNN), w));
  // The witness pair is in NN but not in LC (it is the NN \ LC separator).
  EXPECT_TRUE(builtin_model(kSuiteNN)->contains(w.c, w.phi));
  EXPECT_FALSE(location_consistent(w.c, w.phi));
  // The string rendering mentions the stuck extension's op.
  EXPECT_NE(w.to_string().find("R(0)"), std::string::npos);
}

TEST(Constructibility, Figure4WriteExtensionIsAnswerable) {
  // The paper: "unless F writes to the memory location, there is no way
  // to extend Φ". The write extension must NOT be stuck.
  const NonconstructibilityWitness w = figure4_witness();
  const Computation write_ext = w.c.extend(Op::write(0), {2, 3});
  NonconstructibilityWitness with_write{w.c, w.phi, write_ext};
  EXPECT_FALSE(validate_witness(*builtin_model(kSuiteNN), with_write));
}

TEST(Constructibility, NNWitnessFoundBySearch) {
  const auto w =
      find_nonconstructibility_witness(*builtin_model(kSuiteNN),
                                       small_options(4));
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(validate_witness(*builtin_model(kSuiteNN), *w));
  // Minimality: NN answers every extension of every pair with <= 3 nodes.
  const auto small =
      find_nonconstructibility_witness(*builtin_model(kSuiteNN),
                                       small_options(3));
  EXPECT_FALSE(small.has_value());
}

TEST(Constructibility, MinimalNNWitnessHasFourNodes) {
  const auto w = find_minimal_nonconstructibility_witness(
      *builtin_model(kSuiteNN), small_options(4));
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->c.node_count(), 4u);
}

TEST(Constructibility, WWHasNoWitnessUpToBound) {
  // WW is constructible (Figure 1); the search must come up empty.
  const auto w =
      find_nonconstructibility_witness(*builtin_model(kSuiteWW),
                                       small_options(4));
  EXPECT_FALSE(w.has_value()) << w->to_string();
}

TEST(Constructibility, Theorem19_LCConstructibleUpToBound) {
  const auto w = find_nonconstructibility_witness(
      *builtin_model(kSuiteLC), small_options(4));
  EXPECT_FALSE(w.has_value()) << w->to_string();
}

TEST(Constructibility, Theorem19_SCConstructibleUpToBound) {
  const auto w = find_nonconstructibility_witness(
      *builtin_model(kSuiteSC), small_options(3));
  EXPECT_FALSE(w.has_value()) << w->to_string();
}

TEST(Constructibility, AugmentOnlySearchAgreesForMonotonicModels) {
  // Theorem 12: for monotonic models the augmentation test suffices.
  // NN (monotonic) must still be caught.
  const auto w = find_nonconstructibility_witness(
      *builtin_model(kSuiteNN), small_options(4, /*augment_only=*/true));
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(validate_witness(*builtin_model(kSuiteNN), *w));
  // WW / LC stay clean under the augmentation test too.
  EXPECT_FALSE(find_nonconstructibility_witness(
                   *builtin_model(kSuiteWW), small_options(4, true))
                   .has_value());
  EXPECT_FALSE(find_nonconstructibility_witness(
                   *builtin_model(kSuiteLC), small_options(4, true))
                   .has_value());
}

TEST(Constructibility, NWIsNotConstructible) {
  const auto wnw =
      find_nonconstructibility_witness(*builtin_model(kSuiteNW),
                                       small_options(4));
  ASSERT_TRUE(wnw.has_value());
  EXPECT_TRUE(validate_witness(*builtin_model(kSuiteNW), *wnw));
  // The Figure-4 pair is stuck under NW too (its violating middles are
  // the writes A and B, which NW's predicate accepts).
  const NonconstructibilityWitness fig4 = figure4_witness();
  EXPECT_TRUE(validate_witness(*builtin_model(kSuiteNW), fig4));
}

TEST(Constructibility, WNAnswersEveryExtensionWithBottomUpToBound) {
  // Formal consequence of Definition 20 that mechanization surfaces: the
  // WN premise requires u to be a write, and a write always observes
  // itself (2.3), never ⊥ — so valuing the appended node at ⊥ never
  // triggers a new WN triple. Hence the witness search over the exact
  // Def-20 semantics comes up empty (see EXPERIMENTS.md for discussion
  // of the paper's prose, which asserts WN nonconstructible for the
  // strengthened [BFJ+96a] variant).
  const auto w =
      find_nonconstructibility_witness(*builtin_model(kSuiteWN),
                                       small_options(4));
  EXPECT_FALSE(w.has_value()) << w->to_string();
}

TEST(Constructibility, Lemma7_UnionOfConstructibleModelsIsConstructible) {
  // LC and WW are both constructible; their union must be too.
  const PredicateModel union_model(
      "LC ∪ WW", [](const Computation& c, const ObserverFunction& phi) {
        return location_consistent(c, phi) ||
               qdag_consistent(c, phi, DagPred::kWW);
      });
  const auto w =
      find_nonconstructibility_witness(union_model, small_options(4));
  EXPECT_FALSE(w.has_value()) << w->to_string();
}

TEST(Constructibility, ValidateWitnessRejectsBogusWitnesses) {
  const NonconstructibilityWitness w = figure4_witness();
  // Wrong model: LC does not even contain the pair.
  EXPECT_FALSE(validate_witness(*builtin_model(kSuiteLC), w));
  // Extension that is not an extension of c.
  NonconstructibilityWitness bogus = w;
  bogus.extension = w.c;
  EXPECT_FALSE(validate_witness(*builtin_model(kSuiteNN), bogus));
}

TEST(Constructibility, QuotientSearchAgreesWithLabeledSearch) {
  // The per-class scan must find a witness exactly when the labeled scan
  // does, of the same minimal size, and it must validate.
  WitnessSearchOptions labeled, quotient;
  labeled.spec.nlocations = quotient.spec.nlocations = 1;
  labeled.spec.include_nop = quotient.spec.include_nop = false;
  labeled.spec.max_nodes = quotient.spec.max_nodes = 4;
  labeled.quotient = false;
  quotient.quotient = true;

  struct Row {
    const MemoryModel* model;
    bool expect;
  };
  const auto nn = builtin_model(kSuiteNN);
  const auto lc = builtin_model(kSuiteLC);
  for (const Row& row : {Row{nn.get(), true}, Row{lc.get(), false}}) {
    const auto a = find_nonconstructibility_witness(*row.model, labeled);
    const auto b = find_nonconstructibility_witness(*row.model, quotient);
    EXPECT_EQ(a.has_value(), row.expect);
    EXPECT_EQ(b.has_value(), row.expect);
    if (a.has_value() && b.has_value()) {
      EXPECT_EQ(a->c.node_count(), b->c.node_count());
      EXPECT_TRUE(validate_witness(*row.model, *b));
    }
  }
}

}  // namespace
}  // namespace ccmm
