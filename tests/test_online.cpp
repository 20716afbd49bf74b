// Online maintainers: constructible models have online algorithms
// (SerialMaintainer stays in SC forever); nonconstructible models defeat
// every maintainer on the witness reveal sequence.
#include "construct/online.hpp"

#include <gtest/gtest.h>

#include "construct/witness.hpp"
#include "exec/workload.hpp"
#include "models/compile.hpp"
#include "helpers.hpp"

namespace ccmm {
namespace {

TEST(Online, SerialMaintainerStaysInScForever) {
  SerialMaintainer m;
  Rng rng(1);
  for (int round = 0; round < 15; ++round) {
    const Dag d = gen::random_dag(9, 0.25, rng);
    const Computation c = workload::random_ops(d, 2, 0.4, 0.4, rng);
    const OnlineRun run =
        run_online(m, c, builtin_model(kSuiteSC).get());
    EXPECT_TRUE(run.valid);
    EXPECT_EQ(run.first_violation_step, SIZE_MAX);
    EXPECT_TRUE(sequentially_consistent(c, run.phi));
    // ... and hence in every weaker model.
    EXPECT_TRUE(location_consistent(c, run.phi));
    EXPECT_TRUE(qdag_consistent(c, run.phi, DagPred::kNN));
  }
}

TEST(Online, SerialMaintainerOnWorkloads) {
  SerialMaintainer m;
  for (const Computation& c :
       {workload::reduction(8), workload::contended_counter(5),
        workload::stencil(3, 3)}) {
    const OnlineRun run =
        run_online(m, c, builtin_model(kSuiteLC).get());
    EXPECT_TRUE(run.valid);
    EXPECT_EQ(run.first_violation_step, SIZE_MAX);
  }
}

TEST(Online, GreedyStaleMaintainerStaysInWwForever) {
  // WW is constructible: the greedy maintainer targeting WW never gets
  // stuck, and it is lazier than serial (it leaves reads at ⊥ whenever
  // WW lets it — which is always, for fresh locations).
  GreedyStaleMaintainer m(builtin_model(kSuiteWW));
  Rng rng(2);
  for (int round = 0; round < 10; ++round) {
    const Dag d = gen::random_dag(7, 0.3, rng);
    const Computation c = workload::random_ops(d, 1, 0.5, 0.5, rng);
    const OnlineRun run = run_online(m, c, builtin_model(kSuiteWW).get());
    EXPECT_TRUE(run.valid);
    EXPECT_EQ(run.first_violation_step, SIZE_MAX) << c.to_string();
  }
}

TEST(Online, GreedyStaleMaintainerGetsStuckOnNn) {
  // NN is NOT constructible: drive the greedy NN maintainer through the
  // Figure-4 reveal sequence. It answers the prefix greedily; whatever
  // it committed, the audit shows either an earlier deviation from the
  // witness Φ (a different but still legal position) or a violation at
  // the final step. To pin the outcome, use the maintainer-independent
  // game instead:
  const NonconstructibilityWitness w = figure4_witness();
  EXPECT_TRUE(play_nonconstructibility_game(*builtin_model(kSuiteNN), w));
}

TEST(Online, GameRejectsNonWitnesses) {
  const NonconstructibilityWitness w = figure4_witness();
  // LC never contained the pair: not a defeat of LC.
  EXPECT_FALSE(
      play_nonconstructibility_game(*builtin_model(kSuiteLC), w));
  // The write extension is answerable: not a defeat either.
  NonconstructibilityWitness with_write = w;
  with_write.extension = w.c.extend(Op::write(0), {2, 3});
  EXPECT_FALSE(
      play_nonconstructibility_game(*builtin_model(kSuiteNN), with_write));
}

TEST(Online, RunRejectsUnsortedIds) {
  const Computation c(Dag(2, {{1, 0}}), {Op::nop(), Op::nop()});
  SerialMaintainer m;
  EXPECT_THROW((void)run_online(m, c), std::logic_error);
}

TEST(Online, MaintainedPhiMatchesSerialMemory) {
  // The serial maintainer is the online face of the SC memory: on the
  // same arrival order they produce the same observer function for
  // accessed locations.
  SerialMaintainer m;
  const Computation c = workload::contended_counter(4);
  const OnlineRun run = run_online(m, c);
  const ObserverFunction w = last_writer(c, c.dag().topological_order());
  for (const Location l : c.written_locations())
    for (NodeId u = 0; u < c.node_count(); ++u)
      EXPECT_EQ(run.phi.get(l, u), w.get(l, u));
}

}  // namespace
}  // namespace ccmm
