// Definition 20 (Q-dag consistency) and the paper's Figures 2 and 3.
#include "models/qdag.hpp"

#include <gtest/gtest.h>

#include "core/last_writer.hpp"
#include "dag/generators.hpp"
#include "dag/topsort.hpp"
#include "enumerate/observer_enum.hpp"
#include "enumerate/universe.hpp"
#include "exec/workload.hpp"
#include "models/compile.hpp"
#include "helpers.hpp"
#include "reference_models.hpp"

namespace ccmm {
namespace {

TEST(QDag, EmptyComputationIsInEveryModel) {
  const Computation c;
  const ObserverFunction phi(0);
  for (const DagPred p :
       {DagPred::kNN, DagPred::kNW, DagPred::kWN, DagPred::kWW})
    EXPECT_TRUE(qdag_consistent(c, phi, p));
}

TEST(QDag, RejectsInvalidObserver) {
  ComputationBuilder b;
  const NodeId w = b.write(0);
  b.read(0, {w});
  const Computation c = std::move(b).build();
  ObserverFunction phi(2);  // write does not observe itself: invalid
  phi.set(0, 1, 0);
  EXPECT_FALSE(qdag_consistent(c, phi, DagPred::kNN));
}

TEST(QDag, Figure2Memberships) { test::expect_memberships(test::figure2_pair()); }

TEST(QDag, Figure3Memberships) { test::expect_memberships(test::figure3_pair()); }

TEST(QDag, Figure2ViolationWitness) {
  const auto p = test::figure2_pair();
  QDagViolation v;
  EXPECT_FALSE(qdag_consistent(p.c, p.phi, DagPred::kWN, &v));
  // The forbidden triple is (A, C, D) = (0, 2, 3).
  EXPECT_EQ(v.loc, 0u);
  EXPECT_EQ(v.u, 0u);
  EXPECT_EQ(v.v, 2u);
  EXPECT_EQ(v.w, 3u);
}

TEST(QDag, BottomEndpointTriple) {
  // If Φ(l, w) = ⊥ then every predecessor of w must also observe ⊥ under
  // NN (take u = ⊥ in condition 20.1).
  ComputationBuilder b;
  const NodeId w0 = b.write(0);
  const NodeId r1 = b.read(0, {w0});
  b.read(0, {r1});  // r2: node 2, observes bottom below
  const Computation c = std::move(b).build();
  ObserverFunction phi(3);
  phi.set(0, w0, w0);
  phi.set(0, r1, w0);
  // r2 observes ⊥ after r1 observed the write: NN-inconsistent.
  QDagViolation v;
  EXPECT_FALSE(qdag_consistent(c, phi, DagPred::kNN, &v));
  EXPECT_EQ(v.u, kBottom);
  // But WN tolerates it (⊥ is not a write, and u = w0 has Φ = w0 ≠ ⊥)...
  EXPECT_TRUE(qdag_consistent(c, phi, DagPred::kWN));
  EXPECT_TRUE(qdag_consistent(c, phi, DagPred::kWW));
}

TEST(QDag, ViolationTriplesAreSound) {
  // Every pair of the exhaustive universes, all four named corners:
  // qdag_consistent rejects exactly when Condition 20.1 does, and the
  // triple it fills is a violation of the condition.
  std::size_t triples = 0;
  for (const auto& [max_nodes, nlocations] :
       {std::pair<std::size_t, std::size_t>{4, 1}, {3, 2}}) {
    UniverseSpec spec;
    spec.max_nodes = max_nodes;
    spec.nlocations = nlocations;
    for_each_pair(spec, [&](const Computation& c, const ObserverFunction& phi) {
      for (const DagPred pred :
           {DagPred::kNN, DagPred::kNW, DagPred::kWN, DagPred::kWW}) {
        QDagViolation v{};
        const bool in = qdag_consistent(c, phi, pred, &v);
        EXPECT_EQ(in, test::qdag_by_definition(c, phi, pred))
            << dag_pred_name(pred) << "\n" << c.to_string() << phi.to_string();
        if (in) continue;
        ++triples;
        const NodeId at_u = v.u == kBottom ? kBottom : phi.get(v.loc, v.u);
        EXPECT_TRUE(v.u == kBottom || c.precedes(v.u, v.v)) << v.to_string();
        EXPECT_TRUE(c.precedes(v.v, v.w)) << v.to_string();
        EXPECT_TRUE(test::named_predicate(c, pred)(v.loc, v.u, v.v, v.w))
            << dag_pred_name(pred) << " " << v.to_string();
        EXPECT_EQ(at_u, phi.get(v.loc, v.w)) << v.to_string();
        EXPECT_NE(phi.get(v.loc, v.v), at_u) << v.to_string();
      }
      return true;
    });
  }
  EXPECT_GT(triples, 1000u);
}

TEST(QDag, LastWriterIsAlwaysQDagConsistent) {
  // W_T ∈ SC ⊆ every dag-consistent model (Theorems 21/22 chain).
  Rng rng(4);
  for (int round = 0; round < 25; ++round) {
    const Dag d = gen::random_dag(8, 0.25, rng);
    const Computation c = workload::random_ops(d, 2, 0.4, 0.4, rng);
    const ObserverFunction w =
        last_writer(c, greedy_random_topological_sort(c.dag(), rng));
    for (const DagPred p :
         {DagPred::kNN, DagPred::kNW, DagPred::kWN, DagPred::kWW})
      EXPECT_TRUE(qdag_consistent(c, w, p)) << dag_pred_name(p);
  }
}

TEST(QDag, CustomPredicateAgreesWithNamedOnes) {
  // The named fast paths must agree with the generic cubic checker.
  const auto as_custom = [](DagPred p) {
    return [p](const Computation& c, Location l, NodeId u, NodeId v,
               NodeId w) {
      (void)w;
      const bool uw = u != kBottom && c.op(u).writes(l);
      const bool vw = c.op(v).writes(l);
      switch (p) {
        case DagPred::kNN:
          return true;
        case DagPred::kNW:
          return vw;
        case DagPred::kWN:
          return uw;
        case DagPred::kWW:
          return uw && vw;
      }
      return false;
    };
  };
  Rng rng(5);
  for (int round = 0; round < 40; ++round) {
    const Dag d = gen::random_dag(6, 0.3, rng);
    const Computation c = workload::random_ops(d, 1, 0.4, 0.4, rng);
    // Random valid observer: enumerate a few.
    int budget = 10;
    for_each_observer(c, [&](const ObserverFunction& phi) {
      for (const DagPred p :
           {DagPred::kNN, DagPred::kNW, DagPred::kWN, DagPred::kWW}) {
        EXPECT_EQ(qdag_consistent(c, phi, p),
                  qdag_consistent_custom(c, phi, as_custom(p)))
            << dag_pred_name(p);
      }
      return --budget > 0;
    });
  }
}

TEST(QDag, FalsePredicateAcceptsEverythingValid) {
  // Q ≡ false imposes no constraint: every valid observer is a member.
  const QPredicate never = [](const Computation&, Location, NodeId, NodeId,
                              NodeId) { return false; };
  const auto p = test::figure2_pair();
  EXPECT_TRUE(qdag_consistent_custom(p.c, p.phi, never));
}

TEST(QDag, ModelObjectsReportNames) {
  EXPECT_EQ(builtin_model(kSuiteNN)->name(), "NN");
  EXPECT_EQ(builtin_model(kSuiteNW)->name(), "NW");
  EXPECT_EQ(builtin_model(kSuiteWN)->name(), "WN");
  EXPECT_EQ(builtin_model(kSuiteWW)->name(), "WW");
}

TEST(QDag, AnyObserverWitnessesCompleteness) {
  // Every dag-consistent model is complete: any_observer must succeed.
  Rng rng(6);
  for (int round = 0; round < 10; ++round) {
    const Dag d = gen::random_dag(6, 0.3, rng);
    const Computation c = workload::random_ops(d, 2, 0.4, 0.4, rng);
    const auto phi = builtin_model(kSuiteNN)->any_observer(c);
    ASSERT_TRUE(phi.has_value());
    EXPECT_TRUE(builtin_model(kSuiteNN)->contains(c, *phi));
  }
}

}  // namespace
}  // namespace ccmm
