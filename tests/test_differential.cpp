// Differential fuzzing: the optimized checkers against their brute-force
// definitions on randomly sampled instances beyond exhaustive reach.
#include <gtest/gtest.h>

#include "core/last_writer.hpp"
#include "dag/topsort.hpp"
#include "enumerate/sampling.hpp"
#include "exec/workload.hpp"
#include "helpers.hpp"
#include "reference_models.hpp"

namespace ccmm {
namespace {

using test::lc_by_definition;
using test::qdag_by_definition;
using test::sc_by_definition;

TEST(Differential, QDagCheckersAgreeWithLiteralDefinition) {
  Rng rng(1);
  std::size_t members = 0, nonmembers = 0;
  for (int round = 0; round < 80; ++round) {
    const Dag d = gen::random_dag(7, 0.3, rng);
    const Computation c = workload::random_ops(d, 2, 0.4, 0.4, rng);
    for (int s = 0; s < 10; ++s) {
      const ObserverFunction phi = random_observer(c, rng);
      for (const DagPred p :
           {DagPred::kNN, DagPred::kNW, DagPred::kWN, DagPred::kWW}) {
        const bool fast = qdag_consistent(c, phi, p);
        ASSERT_EQ(fast, qdag_by_definition(c, phi, p))
            << dag_pred_name(p) << "\n"
            << c.to_string() << phi.to_string();
        (fast ? members : nonmembers) += 1;
      }
    }
  }
  EXPECT_GT(members, 100u);
  EXPECT_GT(nonmembers, 100u);
}

TEST(Differential, LcAgreesWithDefinitionOnSampledInstances) {
  Rng rng(2);
  std::size_t members = 0;
  for (int round = 0; round < 120; ++round) {
    const Dag d = gen::random_dag(6, 0.35, rng);
    const Computation c = workload::random_ops(d, 2, 0.4, 0.4, rng);
    for (int s = 0; s < 6; ++s) {
      const ObserverFunction phi = random_observer(c, rng);
      const bool fast = location_consistent(c, phi);
      ASSERT_EQ(fast, lc_by_definition(c, phi))
          << c.to_string() << phi.to_string();
      members += fast ? 1 : 0;
    }
  }
  EXPECT_GT(members, 10u);
}

TEST(Differential, ScAgreesWithDefinitionOnSampledInstances) {
  Rng rng(3);
  std::size_t members = 0;
  for (int round = 0; round < 100; ++round) {
    const Dag d = gen::random_dag(6, 0.3, rng);
    const Computation c = workload::random_ops(d, 2, 0.4, 0.4, rng);
    for (int s = 0; s < 4; ++s) {
      const ObserverFunction phi = random_observer(c, rng);
      const bool fast = sequentially_consistent(c, phi);
      ASSERT_EQ(fast, sc_by_definition(c, phi))
          << c.to_string() << phi.to_string();
      members += fast ? 1 : 0;
    }
  }
  EXPECT_GT(members, 5u);
}

TEST(Differential, LcWitnessIsSelfCertifying) {
  // Whenever the fast LC checker says yes, the witness sort it can
  // produce must reproduce the column exactly — at sizes the brute force
  // could not enumerate.
  Rng rng(4);
  std::size_t verified = 0;
  for (int round = 0; round < 40; ++round) {
    const Dag d = gen::random_dag(24, 0.12, rng);
    const Computation c = workload::random_ops(d, 2, 0.4, 0.4, rng);
    const ObserverFunction phi =
        last_writer(c, greedy_random_topological_sort(c.dag(), rng));
    ASSERT_TRUE(location_consistent(c, phi));
    for (const Location l : c.written_locations()) {
      const auto t = lc_witness(c, phi, l);
      ASSERT_TRUE(t.has_value());
      ASSERT_TRUE(is_topological_sort(c.dag(), *t));
      const ObserverFunction w = last_writer(c, *t);
      for (NodeId u = 0; u < c.node_count(); ++u)
        ASSERT_EQ(w.get(l, u), phi.get(l, u));
      ++verified;
    }
  }
  EXPECT_GT(verified, 40u);
}

}  // namespace
}  // namespace ccmm
