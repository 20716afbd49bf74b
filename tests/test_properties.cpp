// Parameterized property sweeps: the paper's structural facts checked
// across a grid of workload families, sizes and seeds.
#include <gtest/gtest.h>

#include "construct/extension.hpp"
#include "enumerate/observer_enum.hpp"
#include "exec/backer.hpp"
#include "exec/sim_machine.hpp"
#include "exec/workload.hpp"
#include "models/compile.hpp"
#include "helpers.hpp"

namespace ccmm {
namespace {

struct SweepParam {
  const char* family;
  std::size_t size;
  std::uint64_t seed;
};

void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << p.family << "/" << p.size << "/seed" << p.seed;
}

Computation make(const SweepParam& p) {
  Rng rng(p.seed);
  const std::string f = p.family;
  if (f == "random")
    return workload::random_ops(gen::random_dag(p.size, 0.25, rng), 2, 0.4,
                                0.4, rng);
  if (f == "chain")
    return workload::random_ops(gen::chain(p.size), 1, 0.5, 0.5, rng);
  if (f == "antichain")
    return workload::random_ops(gen::antichain(p.size), 1, 0.4, 0.6, rng);
  if (f == "series-parallel")
    return workload::random_ops(gen::series_parallel(p.size, rng), 2, 0.4,
                                0.4, rng);
  ADD_FAILURE() << "unknown family";
  return Computation();
}

class ModelHierarchySweep : public ::testing::TestWithParam<SweepParam> {};

// Theorems 21/22 as inclusion chains on sampled observers:
// SC ⊆ LC ⊆ NN ⊆ NW, WN ⊆ WW.
TEST_P(ModelHierarchySweep, InclusionChainHolds) {
  const Computation c = make(GetParam());
  std::size_t budget = 60;
  for_each_observer(c, [&](const ObserverFunction& phi) {
    const bool in_nn = qdag_consistent(c, phi, DagPred::kNN);
    const bool in_nw = qdag_consistent(c, phi, DagPred::kNW);
    const bool in_wn = qdag_consistent(c, phi, DagPred::kWN);
    const bool in_ww = qdag_consistent(c, phi, DagPred::kWW);
    const bool in_lc = location_consistent(c, phi);
    if (in_lc) {
      EXPECT_TRUE(in_nn);
    }
    if (in_nn) {
      EXPECT_TRUE(in_nw);
      EXPECT_TRUE(in_wn);
    }
    if (in_nw) {
      EXPECT_TRUE(in_ww);
    }
    if (in_wn) {
      EXPECT_TRUE(in_ww);
    }
    return --budget > 0;
  });
}

// Last-writer functions of sampled sorts are in SC, hence everywhere.
TEST_P(ModelHierarchySweep, LastWriterInEveryModel) {
  const Computation c = make(GetParam());
  Rng rng(GetParam().seed ^ 0xabcdef);
  for (int i = 0; i < 3; ++i) {
    const auto t = greedy_random_topological_sort(c.dag(), rng);
    const ObserverFunction w = last_writer(c, t);
    EXPECT_TRUE(sequentially_consistent(c, w));
    EXPECT_TRUE(location_consistent(c, w));
    EXPECT_TRUE(qdag_consistent(c, w, DagPred::kNN));
  }
}

// Monotonicity (Definition 5) under random single-edge deletion.
TEST_P(ModelHierarchySweep, MonotoneUnderEdgeDeletion) {
  const Computation c = make(GetParam());
  if (c.dag().edge_count() == 0) return;
  Rng rng(GetParam().seed ^ 0x1234);
  const auto edges = c.dag().edges();
  const Edge victim = edges[rng.below(edges.size())];
  DagBuilder relaxed_edges(c.node_count());
  for (const auto& e : edges)
    if (!(e == victim)) relaxed_edges.add_edge(e.from, e.to);
  const Dag relaxed = relaxed_edges.build();
  const Computation cr(relaxed, c.ops());

  std::size_t budget = 25;
  for_each_observer(c, [&](const ObserverFunction& phi) {
    for (const DagPred p :
         {DagPred::kNN, DagPred::kNW, DagPred::kWN, DagPred::kWW}) {
      if (qdag_consistent(c, phi, p)) {
        EXPECT_TRUE(qdag_consistent(cr, phi, p)) << dag_pred_name(p);
      }
    }
    if (location_consistent(c, phi)) {
      EXPECT_TRUE(location_consistent(cr, phi));
    }
    return --budget > 0;
  });
}

// Constructibility of LC, observed operationally: any LC pair survives
// any one-node extension (Theorem 19 / Definition 6).
TEST_P(ModelHierarchySweep, LcPairsAnswerRandomExtensions) {
  const Computation c = make(GetParam());
  if (c.node_count() > 8) return;  // extension spaces grow as 2^n
  const auto lc = builtin_model(kSuiteLC);
  const auto phi = lc->any_observer(c);
  ASSERT_TRUE(phi.has_value());
  for_each_one_node_extension(
      c, op_alphabet(2), /*dedupe=*/true, [&](const Computation& ext) {
        bool answered = false;
        for_each_extension_observer(ext, *phi,
                                    [&](const ObserverFunction& phi2) {
                                      if (lc->contains(ext, phi2)) {
                                        answered = true;
                                        return false;
                                      }
                                      return true;
                                    });
        EXPECT_TRUE(answered);
        return true;
      });
}

// BACKER stays LC on every family (the [Luc97] theorem, swept).
TEST_P(ModelHierarchySweep, BackerMaintainsLC) {
  const Computation c = make(GetParam());
  Rng rng(GetParam().seed ^ 0x77);
  BackerMemory mem;
  const Schedule s = work_stealing_schedule(c, 4, rng);
  const ExecutionResult r = run_execution(c, s, mem);
  EXPECT_TRUE(location_consistent(c, r.phi));
}

INSTANTIATE_TEST_SUITE_P(
    Families, ModelHierarchySweep,
    ::testing::Values(
        SweepParam{"random", 5, 1}, SweepParam{"random", 5, 2},
        SweepParam{"random", 6, 3}, SweepParam{"random", 6, 4},
        SweepParam{"random", 7, 5}, SweepParam{"random", 8, 6},
        SweepParam{"chain", 5, 7}, SweepParam{"chain", 7, 8},
        SweepParam{"antichain", 4, 9}, SweepParam{"antichain", 5, 10},
        SweepParam{"series-parallel", 6, 11},
        SweepParam{"series-parallel", 8, 12}),
    [](const ::testing::TestParamInfo<SweepParam>& param_info) {
      std::string name = param_info.param.family;
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name + "_" + std::to_string(param_info.param.size) + "_s" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace ccmm
