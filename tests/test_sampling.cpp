#include "enumerate/sampling.hpp"

#include <gtest/gtest.h>

#include <set>

#include "enumerate/observer_enum.hpp"
#include "exec/workload.hpp"
#include "models/compile.hpp"
#include "helpers.hpp"

namespace ccmm {
namespace {

TEST(Sampling, RandomObserversAreValid) {
  Rng rng(1);
  for (int round = 0; round < 30; ++round) {
    const Dag d = gen::random_dag(8, 0.25, rng);
    const Computation c = workload::random_ops(d, 2, 0.4, 0.4, rng);
    for (int i = 0; i < 10; ++i) {
      const ObserverFunction phi = random_observer(c, rng);
      const auto v = validate_observer(c, phi);
      EXPECT_TRUE(v.ok) << v.reason;
    }
  }
}

TEST(Sampling, RandomObserversCoverTheSpace) {
  // On a small computation the sampler must hit every valid observer.
  ComputationBuilder b;
  const NodeId w1 = b.write(0);
  const NodeId w2 = b.write(0);
  b.read(0, {w1, w2});
  const Computation c = std::move(b).build();
  ASSERT_EQ(observer_count(c), 3u);
  Rng rng(2);
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i)
    seen.insert(random_observer(c, rng).hash());
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Sampling, RandomComputationsRespectTheSpec) {
  UniverseSpec spec;
  spec.max_nodes = 4;
  spec.nlocations = 2;
  spec.include_nop = false;
  spec.max_writes_per_location = 1;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const Computation c = random_computation(spec, rng);
    EXPECT_LE(c.node_count(), 4u);
    std::vector<std::size_t> writes(2, 0);
    for (NodeId u = 0; u < c.node_count(); ++u) {
      const Op o = c.op(u);
      EXPECT_FALSE(o.is_nop());
      EXPECT_LT(o.loc, 2u);
      if (o.is_write()) ++writes[o.loc];
    }
    EXPECT_LE(writes[0], 1u);
    EXPECT_LE(writes[1], 1u);
  }
}

TEST(Sampling, RandomComputationsCoverSizes) {
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 1;
  Rng rng(4);
  std::set<std::size_t> sizes;
  for (int i = 0; i < 300; ++i)
    sizes.insert(random_computation(spec, rng).node_count());
  // Size 3 dominates the raw space, but 2 should appear as well.
  EXPECT_TRUE(sizes.count(3));
  EXPECT_TRUE(sizes.count(2));
}

TEST(Sampling, DensityMatchesExhaustiveCount) {
  // On a computation small enough to enumerate, the Monte-Carlo density
  // must converge to the true ratio.
  const auto p = test::figure2_pair();
  const Computation& c = p.c;
  std::size_t members = 0, total = 0;
  for_each_observer(c, [&](const ObserverFunction& phi) {
    ++total;
    members += qdag_consistent(c, phi, DagPred::kWN) ? 1 : 0;
    return true;
  });
  const double truth =
      static_cast<double>(members) / static_cast<double>(total);

  Rng rng(5);
  const auto est =
      estimate_density(*builtin_model(kSuiteWN), c, 4000, rng);
  EXPECT_NEAR(est.density, truth, 0.05);
  EXPECT_EQ(est.samples, 4000u);
}

TEST(Sampling, ParallelCountMatchesSerial) {
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 1;
  const auto universe = build_universe(spec);
  const auto lc = builtin_model(kSuiteLC);
  std::size_t serial = 0;
  for (const auto& pr : universe)
    serial += lc->contains(pr.c, pr.phi) ? 1 : 0;
  ThreadPool pool(4);
  EXPECT_EQ(parallel_member_count(*lc, universe, pool), serial);
}

}  // namespace
}  // namespace ccmm
