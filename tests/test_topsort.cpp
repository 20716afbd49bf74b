#include "dag/topsort.hpp"

#include <gtest/gtest.h>

#include <set>

#include "dag/generators.hpp"

namespace ccmm {
namespace {

TEST(Topsort, ValidityChecker) {
  const Dag d(3, {{0, 1}, {1, 2}});
  EXPECT_TRUE(is_topological_sort(d, {0, 1, 2}));
  EXPECT_FALSE(is_topological_sort(d, {1, 0, 2}));
  EXPECT_FALSE(is_topological_sort(d, {0, 1}));       // wrong length
  EXPECT_FALSE(is_topological_sort(d, {0, 0, 2}));    // duplicate
  EXPECT_FALSE(is_topological_sort(d, {0, 1, 7}));    // out of range
}

TEST(Topsort, PositionIndexInverts) {
  const std::vector<NodeId> order = {2, 0, 1};
  const auto pos = position_index(order);
  EXPECT_EQ(pos[2], 0u);
  EXPECT_EQ(pos[0], 1u);
  EXPECT_EQ(pos[1], 2u);
}

TEST(Topsort, EnumerationCountsMatchKnownFormulas) {
  // Antichain of n nodes: n! sorts.
  EXPECT_EQ(count_topological_sorts(gen::antichain(4)), 24u);
  // Chain: exactly one.
  EXPECT_EQ(count_topological_sorts(gen::chain(6)), 1u);
  // Diamond with k branches: k! (middle nodes permute freely).
  EXPECT_EQ(count_topological_sorts(gen::diamond(3)), 6u);
  // Empty dag: the empty sort.
  EXPECT_EQ(count_topological_sorts(Dag()), 1u);
}

TEST(Topsort, EnumerationVisitsExactlyAllSorts) {
  const Dag d = gen::diamond(2);  // 0 -> {1,2} -> 3
  std::set<std::vector<NodeId>> seen;
  for_each_topological_sort(d, [&](const std::vector<NodeId>& t) {
    EXPECT_TRUE(is_topological_sort(d, t));
    seen.insert(t);
    return true;
  });
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen.count({0, 1, 2, 3}));
  EXPECT_TRUE(seen.count({0, 2, 1, 3}));
}

TEST(Topsort, EnumerationEarlyStop) {
  int visits = 0;
  for_each_topological_sort(gen::antichain(5),
                            [&](const std::vector<NodeId>&) {
                              ++visits;
                              return visits < 3;
                            });
  EXPECT_EQ(visits, 3);
}

TEST(Topsort, CountSaturatesAtCap) {
  EXPECT_EQ(count_topological_sorts(gen::antichain(10), 1000), 1000u);
}

TEST(Topsort, CountMatchesEnumeration) {
  Rng rng(5);
  for (int round = 0; round < 10; ++round) {
    const Dag d = gen::random_dag(6, 0.3, rng);
    std::uint64_t by_enum = 0;
    for_each_topological_sort(d, [&](const std::vector<NodeId>&) {
      ++by_enum;
      return true;
    });
    EXPECT_EQ(count_topological_sorts(d), by_enum);
  }
}

TEST(Topsort, UniformSamplerProducesValidSorts) {
  Rng rng(17);
  const Dag d = gen::diamond(3);
  for (int i = 0; i < 50; ++i)
    EXPECT_TRUE(is_topological_sort(d, random_topological_sort(d, rng)));
}

TEST(Topsort, UniformSamplerIsActuallyUniform) {
  // Diamond(2) has exactly 2 sorts; a uniform sampler should split evenly.
  Rng rng(23);
  const Dag d = gen::diamond(2);
  int first = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const auto t = random_topological_sort(d, rng);
    if (t[1] == 1) ++first;
  }
  EXPECT_NEAR(static_cast<double>(first) / trials, 0.5, 0.05);
}

TEST(Topsort, GreedySamplerProducesValidSorts) {
  Rng rng(31);
  const Dag d = gen::random_dag(20, 0.2, rng);
  for (int i = 0; i < 20; ++i)
    EXPECT_TRUE(is_topological_sort(d, greedy_random_topological_sort(d, rng)));
}

}  // namespace
}  // namespace ccmm
