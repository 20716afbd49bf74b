// Definition 18: location consistency, and the polynomial membership
// algorithm (block quotient) cross-checked against the brute-force
// definition (exists a topological sort per location).
#include "models/location_consistency.hpp"

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

/// Brute-force Definition 18: per location, search TS(C) for a sort whose
/// last-writer column matches.
bool lc_by_definition(const Computation& c, const ObserverFunction& phi) {
  if (!is_valid_observer(c, phi)) return false;
  for (const Location l : phi.active_locations()) {
    bool found = false;
    for_each_topological_sort(c.dag(), [&](const std::vector<NodeId>& t) {
      const ObserverFunction w = last_writer(c, t);
      bool match = true;
      for (NodeId u = 0; u < c.node_count(); ++u)
        if (w.get(l, u) != phi.get(l, u)) {
          match = false;
          break;
        }
      if (match) {
        found = true;
        return false;
      }
      return true;
    });
    if (!found) return false;
  }
  return true;
}

TEST(LocationConsistency, EmptyComputation) {
  EXPECT_TRUE(location_consistent(Computation(), ObserverFunction(0)));
}

TEST(LocationConsistency, LastWriterIsAlwaysLC) {
  Rng rng(1);
  for (int round = 0; round < 20; ++round) {
    const Dag d = gen::random_dag(8, 0.3, rng);
    const Computation c = workload::random_ops(d, 2, 0.4, 0.4, rng);
    const ObserverFunction w =
        last_writer(c, greedy_random_topological_sort(c.dag(), rng));
    EXPECT_TRUE(location_consistent(c, w));
  }
}

TEST(LocationConsistency, PerLocationIndependentSortsAreLC) {
  // Distinct sorts per location — the defining freedom of LC.
  const Dag d = gen::antichain(4);
  const Computation c(
      d, {Op::write(0), Op::write(0), Op::write(1), Op::write(1)});
  const ObserverFunction w0 = last_writer(c, {0, 1, 2, 3});
  const ObserverFunction w1 = last_writer(c, {3, 2, 1, 0});
  ObserverFunction mixed(4);
  for (NodeId u = 0; u < 4; ++u) {
    if (w0.get(0, u) != kBottom) mixed.set(0, u, w0.get(0, u));
    if (w1.get(1, u) != kBottom) mixed.set(1, u, w1.get(1, u));
  }
  // Writes must observe themselves; patch the cross-location columns the
  // two sorts disagree on... they agree on own-writes by construction.
  EXPECT_TRUE(is_valid_observer(c, mixed));
  EXPECT_TRUE(location_consistent(c, mixed));
}

TEST(LocationConsistency, FiguresAreNotLC) {
  EXPECT_FALSE(location_consistent(test::figure2_pair().c,
                                   test::figure2_pair().phi));
  EXPECT_FALSE(location_consistent(test::figure3_pair().c,
                                   test::figure3_pair().phi));
}

TEST(LocationConsistency, LcNotScPairIsLC) {
  const auto p = test::lc_not_sc_pair();
  EXPECT_TRUE(location_consistent(p.c, p.phi));
}

TEST(LocationConsistency, QuotientCycleDetected) {
  // The minimal Figure-4 core: blocks {A,C} and {B,D} crossing both ways.
  const Dag g(4, {{0, 3}, {1, 2}});  // C -> B, D -> A
  const Computation c(
      g, {Op::read(0), Op::read(0), Op::write(0), Op::write(0)});
  ObserverFunction phi(4);
  phi.set(0, 0, 2);
  phi.set(0, 1, 3);
  phi.set(0, 2, 2);
  phi.set(0, 3, 3);
  EXPECT_FALSE(location_consistent(c, phi));
  EXPECT_FALSE(location_consistent_at(c, phi, 0));
}

TEST(LocationConsistency, BottomBlockMustComeFirst) {
  // A node observing ⊥ *after* a write in dag order cannot be serialized.
  ComputationBuilder b;
  const NodeId w = b.write(0);
  b.nop({w});  // succeeds the write but observes ⊥
  const Computation c = std::move(b).build();
  ObserverFunction phi(2);
  phi.set(0, w, w);
  EXPECT_FALSE(location_consistent(c, phi));
}

TEST(LocationConsistency, WitnessSortReproducesPhi) {
  Rng rng(3);
  int verified = 0;
  for (int round = 0; round < 60; ++round) {
    const Dag d = gen::random_dag(6, 0.3, rng);
    const Computation c = workload::random_ops(d, 1, 0.4, 0.4, rng);
    int budget = 20;
    for_each_observer(c, [&](const ObserverFunction& phi) {
      if (location_consistent(c, phi) && !c.writers(0).empty()) {
        const auto t = lc_witness(c, phi, 0);
        EXPECT_TRUE(t.has_value());
        if (t.has_value()) {
          EXPECT_TRUE(is_topological_sort(c.dag(), *t));
          const ObserverFunction w = last_writer(c, *t);
          for (NodeId u = 0; u < c.node_count(); ++u)
            EXPECT_EQ(w.get(0, u), phi.get(0, u));
          ++verified;
        }
      }
      return --budget > 0;
    });
  }
  EXPECT_GT(verified, 50);
}

TEST(LocationConsistency, AgreesWithBruteForceDefinition) {
  // The real theorem for the polynomial algorithm: exhaustive agreement
  // with Definition 18 on small computations.
  Rng rng(4);
  std::size_t checked = 0, members = 0;
  for (int round = 0; round < 50; ++round) {
    const Dag d = gen::random_dag(5, 0.35, rng);
    const Computation c = workload::random_ops(d, 2, 0.35, 0.45, rng);
    for_each_observer(c, [&](const ObserverFunction& phi) {
      const bool fast = location_consistent(c, phi);
      const bool slow = lc_by_definition(c, phi);
      EXPECT_EQ(fast, slow);
      ++checked;
      members += fast ? 1 : 0;
      return checked % 997 != 0;  // sample a prefix of each space
    });
  }
  EXPECT_GT(checked, 1000u);
  EXPECT_GT(members, 0u);
}

TEST(LocationConsistency, QuotientReferenceMatchesDefinition) {
  // The polynomial block-quotient reference the streaming differentials
  // use on dags too wide to enumerate their sorts equals Definition 18
  // on every pair of the exhaustive universes.
  std::size_t members = 0;
  for (const auto& [max_nodes, nlocations] :
       {std::pair<std::size_t, std::size_t>{4, 1}, {3, 2}}) {
    UniverseSpec spec;
    spec.max_nodes = max_nodes;
    spec.nlocations = nlocations;
    for_each_pair(spec, [&](const Computation& c, const ObserverFunction& phi) {
      const bool want = test::lc_by_definition(c, phi);
      EXPECT_EQ(test::lc_by_quotient(c, phi), want)
          << c.to_string() << phi.to_string();
      members += want ? 1 : 0;
      return true;
    });
  }
  EXPECT_GT(members, 1000u);
}

TEST(LocationConsistency, ModelObject) {
  const auto m = builtin_model(kSuiteLC);
  EXPECT_EQ(m->name(), "LC");
  const auto p = test::lc_not_sc_pair();
  EXPECT_TRUE(m->contains(p.c, p.phi));
  const auto any = m->any_observer(p.c);
  ASSERT_TRUE(any.has_value());
  EXPECT_TRUE(m->contains(p.c, *any));
}

}  // namespace
}  // namespace ccmm
