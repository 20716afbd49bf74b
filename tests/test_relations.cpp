// Figure 1: the lattice of model relations, verified extensionally on a
// bounded universe (Theorems 21 and 22 plus the strictness examples).
#include "models/relations.hpp"

#include <gtest/gtest.h>

#include "enumerate/universe.hpp"
#include "helpers.hpp"
#include "models/compile.hpp"

namespace ccmm {
namespace {

class RelationsOnUniverse : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    UniverseSpec spec;
    spec.max_nodes = 4;
    spec.nlocations = 1;
    spec.include_nop = false;  // keeps the universe tight; nops are
                               // exercised by the handcrafted pairs
    universe_ = new std::vector<CPhi>(build_universe(spec));
    // Add the two-location separator pairs the 1-location universe lacks.
    const auto p = test::lc_not_sc_pair();
    universe_->push_back({p.c, p.phi});
  }
  static void TearDownTestSuite() {
    delete universe_;
    universe_ = nullptr;
  }

  static std::vector<CPhi>* universe_;
};

std::vector<CPhi>* RelationsOnUniverse::universe_ = nullptr;

TEST_F(RelationsOnUniverse, UniverseIsSubstantial) {
  EXPECT_GT(universe_->size(), 3000u);
}

TEST_F(RelationsOnUniverse, Figure1Lattice) {
  const auto nn = builtin_model(kSuiteNN);
  const auto nw = builtin_model(kSuiteNW);
  const auto wn = builtin_model(kSuiteWN);
  const auto ww = builtin_model(kSuiteWW);
  const auto lc = builtin_model(kSuiteLC);
  const auto sc = builtin_model(kSuiteSC);

  // SC ⊊ LC (strictness needs the 2-location pair appended in SetUp).
  EXPECT_EQ(compare_models(*sc, *lc, *universe_).relation,
            ModelRelation::kStrictlyStronger);
  // LC ⊊ NN (Theorem 22).
  EXPECT_EQ(compare_models(*lc, *nn, *universe_).relation,
            ModelRelation::kStrictlyStronger);
  // NN ⊊ NW and NN ⊊ WN.
  EXPECT_EQ(compare_models(*nn, *nw, *universe_).relation,
            ModelRelation::kStrictlyStronger);
  EXPECT_EQ(compare_models(*nn, *wn, *universe_).relation,
            ModelRelation::kStrictlyStronger);
  // NW ⊊ WW and WN ⊊ WW.
  EXPECT_EQ(compare_models(*nw, *ww, *universe_).relation,
            ModelRelation::kStrictlyStronger);
  EXPECT_EQ(compare_models(*wn, *ww, *universe_).relation,
            ModelRelation::kStrictlyStronger);
  // NW and WN are incomparable (Figures 2 and 3 in the two directions).
  EXPECT_EQ(compare_models(*nw, *wn, *universe_).relation,
            ModelRelation::kIncomparable);
}

TEST_F(RelationsOnUniverse, Theorem21_NNIsStrongestDagModel) {
  // NN ⊆ Q-dag consistency for arbitrary predicates Q: try a few exotic
  // ones alongside the named models.
  const auto nn = builtin_model(kSuiteNN);
  const auto custom = [](std::string name, QPredicate q) {
    return PredicateModel(
        std::move(name),
        PredicateModel::PreparedPred([q = std::move(q)](const PreparedPair& p) {
          return qdag_consistent_custom_prepared(p, q);
        }));
  };
  const PredicateModel parity = custom(
      "parity", [](const Computation&, Location, NodeId u, NodeId v,
                   NodeId w) { return (u + v + w) % 2 == 0; });
  const PredicateModel only_far = custom(
      "only-far", [](const Computation& c, Location, NodeId u, NodeId v,
                     NodeId w) {
        (void)v;
        return u != kBottom && c.precedes(u, w);
      });
  for (const MemoryModel* q :
       std::initializer_list<const MemoryModel*>{&parity, &only_far}) {
    const auto r = compare_models(*nn, *q, *universe_);
    EXPECT_TRUE(r.relation == ModelRelation::kEqual ||
                r.relation == ModelRelation::kStrictlyStronger)
        << q->name() << ": " << relation_name(r.relation);
  }
}

TEST_F(RelationsOnUniverse, MembershipCountsAreMonotoneAlongTheLattice) {
  const auto nn = builtin_model(kSuiteNN);
  const auto ww = builtin_model(kSuiteWW);
  const auto lc = builtin_model(kSuiteLC);
  const auto sc = builtin_model(kSuiteSC);
  const auto counts = membership_counts(
      {sc.get(), lc.get(), nn.get(), ww.get()}, *universe_);
  EXPECT_LT(counts[0], counts[1]);  // |SC| < |LC|
  EXPECT_LT(counts[1], counts[2]);  // |LC| < |NN|
  EXPECT_LT(counts[2], counts[3]);  // |NN| < |WW|
  EXPECT_GT(counts[0], 0u);
}

TEST_F(RelationsOnUniverse, Definition5_AllSixModelsMonotonic) {
  // Monotonicity on a thinned universe (full one is slow under SC).
  std::vector<CPhi> thin;
  for (std::size_t i = 0; i < universe_->size(); i += 7)
    thin.push_back((*universe_)[i]);
  for (const auto* m : std::initializer_list<const MemoryModel*>{
           builtin_model(kSuiteNN).get(), builtin_model(kSuiteNW).get(),
           builtin_model(kSuiteWN).get(), builtin_model(kSuiteWW).get(),
           builtin_model(kSuiteLC).get(), builtin_model(kSuiteSC).get()}) {
    const auto r = check_monotonicity(*m, thin);
    EXPECT_TRUE(r.monotonic) << m->name() << " violated at index "
                             << r.witness;
  }
}

TEST(Relations, IntersectionModel) {
  const auto nw = builtin_model(kSuiteNW);
  const auto wn = builtin_model(kSuiteWN);
  const IntersectionModel both(nw, wn);
  const auto f2 = test::figure2_pair();  // in NW, not WN
  EXPECT_FALSE(both.contains(f2.c, f2.phi));
  const auto f3 = test::figure3_pair();  // in WN, not NW
  EXPECT_FALSE(both.contains(f3.c, f3.phi));
  const auto p = test::lc_not_sc_pair();  // in everything but SC
  EXPECT_TRUE(both.contains(p.c, p.phi));
}

TEST(Relations, PredicateModelWrapsLambdas) {
  const PredicateModel anything(
      "valid-only", [](const Computation& c, const ObserverFunction& phi) {
        return is_valid_observer(c, phi);
      });
  const auto p = test::figure2_pair();
  EXPECT_TRUE(anything.contains(p.c, p.phi));
  EXPECT_EQ(anything.name(), "valid-only");
}

}  // namespace
}  // namespace ccmm
