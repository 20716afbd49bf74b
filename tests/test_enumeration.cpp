#include <gtest/gtest.h>

#include <set>

#include "enumerate/dag_enum.hpp"
#include "enumerate/labeling_enum.hpp"
#include "enumerate/observer_enum.hpp"
#include "enumerate/universe.hpp"

namespace ccmm {
namespace {

TEST(DagEnum, CountsArePowersOfTwo) {
  EXPECT_EQ(topo_dag_count(0), 1u);
  EXPECT_EQ(topo_dag_count(1), 1u);
  EXPECT_EQ(topo_dag_count(2), 2u);
  EXPECT_EQ(topo_dag_count(3), 8u);
  EXPECT_EQ(topo_dag_count(4), 64u);
  EXPECT_EQ(topo_dag_count(5), 1024u);
}

TEST(DagEnum, LabeledDagCountsMatchOeisA003024) {
  // 1, 1, 3, 25, 543, 29281, 3781503 (labeled DAGs on n nodes).
  EXPECT_EQ(labeled_dag_count(0), 1u);
  EXPECT_EQ(labeled_dag_count(1), 1u);
  EXPECT_EQ(labeled_dag_count(2), 3u);
  EXPECT_EQ(labeled_dag_count(3), 25u);
  EXPECT_EQ(labeled_dag_count(4), 543u);
  EXPECT_EQ(labeled_dag_count(5), 29281u);
  EXPECT_EQ(labeled_dag_count(6), 3781503u);
}

TEST(DagEnum, EnumerationVisitsDistinctAcyclicGraphs) {
  std::set<std::uint64_t> masks;
  std::uint64_t visits = 0;
  for_each_topo_dag(3, [&](const Dag& d) {
    EXPECT_EQ(d.node_count(), 3u);
    EXPECT_TRUE(d.is_acyclic());
    masks.insert(dag_mask(d));
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 8u);
  EXPECT_EQ(masks.size(), 8u);
}

TEST(DagEnum, MaskRoundTrip) {
  for (std::uint64_t m = 0; m < topo_dag_count(4); ++m)
    EXPECT_EQ(dag_mask(dag_from_mask(4, m)), m);
}

TEST(DagEnum, MaskRejectsUnsortedIds) {
  EXPECT_THROW((void)dag_mask(Dag(2, {{1, 0}})), std::logic_error);
}

TEST(LabelingEnum, CountMatchesAlphabetPower) {
  LabelingSpec spec{3, 1, true, SIZE_MAX};
  EXPECT_EQ(labeling_count(spec), 27u);  // {N, R, W}^3
  spec.include_nop = false;
  EXPECT_EQ(labeling_count(spec), 8u);
  spec.nlocations = 2;
  EXPECT_EQ(labeling_count(spec), 64u);  // {R0,W0,R1,W1}^3
}

TEST(LabelingEnum, VisitsExactlyAllLabelings) {
  LabelingSpec spec{2, 1, true, SIZE_MAX};
  std::set<std::vector<int>> seen;
  for_each_labeling(spec, [&](const std::vector<Op>& ops) {
    std::vector<int> key;
    for (const Op& o : ops) key.push_back(static_cast<int>(o.kind));
    seen.insert(key);
    return true;
  });
  EXPECT_EQ(seen.size(), 9u);
}

TEST(LabelingEnum, WriteCapFiltersLabelings) {
  LabelingSpec spec{3, 1, false, 1};
  std::size_t count = 0;
  for_each_labeling(spec, [&](const std::vector<Op>& ops) {
    std::size_t writes = 0;
    for (const Op& o : ops) writes += o.is_write() ? 1 : 0;
    EXPECT_LE(writes, 1u);
    ++count;
    return true;
  });
  EXPECT_EQ(count, 4u);  // RRR, WRR, RWR, RRW
}

TEST(LabelingEnum, ZeroNodes) {
  LabelingSpec spec{0, 1, true, SIZE_MAX};
  std::size_t count = 0;
  for_each_labeling(spec, [&](const std::vector<Op>& ops) {
    EXPECT_TRUE(ops.empty());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1u);
}

TEST(ObserverEnum, CountMatchesProductFormula) {
  // W, R, R chain: readers below the write can observe {⊥, W} each... but
  // precedence prunes nothing here (the write is first).
  ComputationBuilder b;
  const NodeId w = b.write(0);
  b.read(0, {w});
  b.read(0, {w});
  const Computation c = std::move(b).build();
  EXPECT_EQ(observer_count(c), 4u);  // 2 free slots × {⊥, w}
}

TEST(ObserverEnum, PrecedencePrunesChoices) {
  // Read *before* the write cannot observe it (condition 2.2).
  ComputationBuilder b;
  const NodeId r = b.read(0);
  b.write(0, {r});
  const Computation c = std::move(b).build();
  EXPECT_EQ(observer_count(c), 1u);  // the read is stuck at ⊥
}

TEST(ObserverEnum, AllEnumeratedObserversAreValidAndDistinct) {
  ComputationBuilder b;
  const NodeId w1 = b.write(0);
  const NodeId w2 = b.write(0);
  b.read(0, {w1, w2});
  b.nop();
  const Computation c = std::move(b).build();
  std::set<std::string> seen;
  std::size_t n = 0;
  for_each_observer(c, [&](const ObserverFunction& phi) {
    EXPECT_TRUE(is_valid_observer(c, phi));
    seen.insert(encode_observer(phi));
    ++n;
    return true;
  });
  EXPECT_EQ(n, observer_count(c));
  EXPECT_EQ(seen.size(), n);  // no duplicates
  EXPECT_EQ(n, 9u);           // read and nop: 3 choices each
}

TEST(Universe, ComputationCountsComposeDagAndLabelingCounts) {
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 1;
  // sizes 0..3: 1·1 + 1·3 + 2·9 + 8·27 = 238.
  EXPECT_EQ(computation_count(spec), 238u);
}

TEST(Universe, PairCountAgreesWithMaterialization) {
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 1;
  const auto pairs = build_universe(spec);
  EXPECT_EQ(pairs.size(), pair_count(spec));
  for (const auto& p : pairs) EXPECT_TRUE(is_valid_observer(p.c, p.phi));
}

TEST(Universe, EncodingsAreInjective) {
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 1;
  std::set<std::pair<std::string, std::string>> seen;
  for_each_pair(spec, [&](const Computation& c, const ObserverFunction& phi) {
    EXPECT_TRUE(
        seen.emplace(encode_computation(c), encode_observer(phi)).second);
    return true;
  });
  EXPECT_EQ(seen.size(), pair_count(spec));
}

TEST(Universe, EmptyComputationIncluded) {
  UniverseSpec spec;
  spec.max_nodes = 0;
  EXPECT_EQ(computation_count(spec), 1u);
  EXPECT_EQ(pair_count(spec), 1u);
}

}  // namespace
}  // namespace ccmm
