// Definition 17: sequential consistency, cross-checked against the
// brute-force definition (one topological sort explains every location).
#include "models/sequential_consistency.hpp"

#include <gtest/gtest.h>

#include "core/last_writer.hpp"
#include "dag/generators.hpp"
#include "dag/topsort.hpp"
#include "enumerate/observer_enum.hpp"
#include "exec/workload.hpp"
#include "models/compile.hpp"
#include "helpers.hpp"

namespace ccmm {
namespace {

bool sc_by_definition(const Computation& c, const ObserverFunction& phi) {
  if (!is_valid_observer(c, phi)) return false;
  bool found = false;
  for_each_topological_sort(c.dag(), [&](const std::vector<NodeId>& t) {
    if (last_writer(c, t) == phi) {
      found = true;
      return false;
    }
    return true;
  });
  return found;
}

TEST(SequentialConsistency, EmptyComputation) {
  EXPECT_TRUE(sequentially_consistent(Computation(), ObserverFunction(0)));
}

TEST(SequentialConsistency, LastWriterIsSC) {
  Rng rng(1);
  for (int round = 0; round < 20; ++round) {
    const Dag d = gen::random_dag(7, 0.3, rng);
    const Computation c = workload::random_ops(d, 2, 0.4, 0.4, rng);
    const auto t = greedy_random_topological_sort(c.dag(), rng);
    const ObserverFunction w = last_writer(c, t);
    const auto r = sc_check(c, w);
    EXPECT_EQ(r.status, SearchStatus::kYes);
    ASSERT_TRUE(r.witness.has_value());
    EXPECT_TRUE(is_topological_sort(c.dag(), *r.witness));
    EXPECT_EQ(last_writer(c, *r.witness), w);
  }
}

TEST(SequentialConsistency, LcNotScPairRejected) {
  const auto p = test::lc_not_sc_pair();
  EXPECT_FALSE(sequentially_consistent(p.c, p.phi));
}

TEST(SequentialConsistency, FiguresRejected) {
  EXPECT_FALSE(sequentially_consistent(test::figure2_pair().c,
                                       test::figure2_pair().phi));
  EXPECT_FALSE(sequentially_consistent(test::figure3_pair().c,
                                       test::figure3_pair().phi));
}

TEST(SequentialConsistency, AgreesWithBruteForceDefinition) {
  Rng rng(2);
  std::size_t checked = 0, members = 0, nonmembers = 0;
  for (int round = 0; round < 60; ++round) {
    const Dag d = gen::random_dag(5, 0.3, rng);
    const Computation c = workload::random_ops(d, 2, 0.35, 0.45, rng);
    for_each_observer(c, [&](const ObserverFunction& phi) {
      const bool fast = sequentially_consistent(c, phi);
      EXPECT_EQ(fast, sc_by_definition(c, phi));
      ++checked;
      (fast ? members : nonmembers) += 1;
      return checked % 499 != 0;
    });
  }
  EXPECT_GT(members, 0u);
  EXPECT_GT(nonmembers, 0u);
}

TEST(SequentialConsistency, LargeLocationIdsMatchTheDefinition) {
  // The search keys its per-write state by node, not by location id:
  // ids up to 0xFFFFFFFF (which once wrapped an id-sized table to zero
  // entries) answer like the same computation on small ids.
  Rng rng(0xFFFF);
  std::size_t checked = 0;
  for (int round = 0; round < 20; ++round) {
    const Dag d = gen::random_dag(5, 0.3, rng);
    const Computation small = workload::random_ops(d, 2, 0.35, 0.45, rng);
    std::vector<Op> ops = small.ops();
    for (Op& o : ops)
      if (!o.is_nop()) o.loc = o.loc == 0 ? 0xFFFFFFFFu : 0x80000000u;
    const Computation c(d, ops);
    for_each_observer(c, [&](const ObserverFunction& phi) {
      EXPECT_EQ(sequentially_consistent(c, phi), sc_by_definition(c, phi));
      return ++checked % 97 != 0;
    });
  }
  EXPECT_GT(checked, 0u);
}

TEST(SequentialConsistency, WitnessIsAlwaysAnExplainingSort) {
  Rng rng(3);
  for (int round = 0; round < 40; ++round) {
    const Dag d = gen::random_dag(6, 0.25, rng);
    const Computation c = workload::random_ops(d, 2, 0.4, 0.4, rng);
    int budget = 10;
    for_each_observer(c, [&](const ObserverFunction& phi) {
      const auto r = sc_check(c, phi);
      if (r.status == SearchStatus::kYes) {
        EXPECT_TRUE(r.witness.has_value());
        if (r.witness.has_value()) {
          EXPECT_EQ(last_writer(c, *r.witness), phi);
        }
      }
      return --budget > 0;
    });
  }
}

TEST(SequentialConsistency, BudgetExhaustionIsReported) {
  // A member instance forces the search to actually place nodes, so a
  // budget of 1 exhausts before the witness leaf. (Non-members can now
  // die at the root without spending budget: the block-drain pruning may
  // leave no placeable candidate at all.)
  ComputationBuilder b;
  const NodeId w = b.write(0);
  b.read(0, {w});
  const Computation c = std::move(b).build();
  ObserverFunction phi(c.node_count());
  phi.set(0, 0, w);
  phi.set(0, 1, w);
  const auto r = sc_check(c, phi, 1);
  EXPECT_EQ(r.status, SearchStatus::kExhausted);

  // The same non-member instance that used to pin this test is now
  // decided within the smallest budget — pruning reports a definitive
  // answer, never a bogus one.
  const auto p = test::lc_not_sc_pair();
  EXPECT_EQ(sc_check(p.c, p.phi, 1).status, SearchStatus::kNo);
}

TEST(SequentialConsistency, ScIsStrongerThanLC) {
  // Every SC pair is LC (Section 4 of the paper).
  Rng rng(5);
  std::size_t sc_members = 0;
  for (int round = 0; round < 40; ++round) {
    const Dag d = gen::random_dag(5, 0.3, rng);
    const Computation c = workload::random_ops(d, 2, 0.4, 0.4, rng);
    int budget = 15;
    for_each_observer(c, [&](const ObserverFunction& phi) {
      if (sequentially_consistent(c, phi)) {
        ++sc_members;
        EXPECT_TRUE(location_consistent(c, phi));
      }
      return --budget > 0;
    });
  }
  EXPECT_GT(sc_members, 50u);
}

TEST(SequentialConsistency, AblationKnobsPreserveAnswers) {
  // Memoization and the LC prefilter are pure accelerations: all four
  // configurations must agree on every decided instance.
  Rng rng(8);
  for (int round = 0; round < 25; ++round) {
    const Dag d = gen::random_dag(6, 0.3, rng);
    const Computation c = workload::random_ops(d, 2, 0.4, 0.4, rng);
    int budget = 8;
    for_each_observer(c, [&](const ObserverFunction& phi) {
      const bool base = sequentially_consistent(c, phi);
      for (const bool memo : {false, true}) {
        for (const bool filter : {false, true}) {
          ScOptions options;
          options.memoize_dead_states = memo;
          options.lc_prefilter = filter;
          EXPECT_EQ(sc_check_with(c, phi, options).status == SearchStatus::kYes,
                    base)
              << memo << filter;
        }
      }
      return --budget > 0;
    });
  }
}

TEST(SequentialConsistency, ModelObject) {
  const auto m = builtin_model(kSuiteSC);
  EXPECT_EQ(m->name(), "SC");
  const auto any = m->any_observer(test::lc_not_sc_pair().c);
  ASSERT_TRUE(any.has_value());
  EXPECT_TRUE(m->contains(test::lc_not_sc_pair().c, *any));
}

}  // namespace
}  // namespace ccmm
