// The MSI directory protocol: invalidation-based coherence keeps one
// globally latest value per location, so executions are sequentially
// consistent — the strong baseline BACKER trades away.
#include "exec/msi.hpp"

#include <gtest/gtest.h>

#include "exec/backer.hpp"
#include "exec/sim_machine.hpp"
#include "exec/workload.hpp"
#include "helpers.hpp"

namespace ccmm {
namespace {

TEST(Msi, SerialExecutionIsSC) {
  MsiMemory mem;
  Rng rng(1);
  const Computation c =
      workload::random_ops(gen::random_dag(12, 0.2, rng), 3, 0.4, 0.4, rng);
  const ExecutionResult r = run_serial(c, mem);
  EXPECT_TRUE(is_valid_observer(c, r.phi));
  EXPECT_TRUE(sequentially_consistent(c, r.phi));
}

TEST(Msi, ParallelExecutionsStaySC) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const Computation c =
        workload::random_ops(gen::random_dag(14, 0.15, rng), 3, 0.4, 0.4,
                             rng);
    for (const std::size_t procs : {2u, 4u, 8u}) {
      MsiMemory mem;
      const Schedule s = work_stealing_schedule(c, procs, rng);
      const ExecutionResult r = run_execution(c, s, mem);
      EXPECT_TRUE(sequentially_consistent(c, r.phi))
          << "seed " << seed << " procs " << procs;
    }
  }
}

TEST(Msi, InvalidationTrafficOnConflicts) {
  MsiMemory mem;
  Rng rng(5);
  const Computation c = workload::contended_counter(8);
  const Schedule s = work_stealing_schedule(c, 4, rng);
  const ExecutionResult r = run_execution(c, s, mem);
  if (s.steals > 0) {
    EXPECT_GT(mem.msi_stats().invalidations +
                  mem.msi_stats().ownership_transfers,
              0u);
  }
  EXPECT_TRUE(sequentially_consistent(c, r.phi));
}

TEST(Msi, ReadsSeeTheLatestWriteGlobally) {
  // Directly: after any write, every processor's peek agrees.
  MsiMemory mem;
  const Computation dummy = Computation().extend(Op::nop(), {});
  mem.bind(dummy, 4);
  mem.write(0, /*u=*/0, /*l=*/7);
  for (ProcId p = 0; p < 4; ++p) EXPECT_EQ(mem.peek(p, 0, 7), 0u);
  mem.write(2, /*u=*/0, /*l=*/7);  // ownership moves to proc 2
  for (ProcId p = 0; p < 4; ++p) EXPECT_EQ(mem.peek(p, 0, 7), 0u);
  EXPECT_GE(mem.msi_stats().ownership_transfers, 2u);
}

TEST(Msi, SharedReadersAreNotInvalidatedByReads) {
  MsiMemory mem;
  const Computation dummy = Computation().extend(Op::nop(), {});
  mem.bind(dummy, 4);
  mem.write(0, 0, 1);
  (void)mem.read(1, 0, 1);
  (void)mem.read(2, 0, 1);
  const auto invals_before = mem.msi_stats().invalidations;
  (void)mem.read(3, 0, 1);
  EXPECT_EQ(mem.msi_stats().invalidations, invals_before);
}

TEST(Msi, UnwrittenLocationReadsBottom) {
  MsiMemory mem;
  const Computation dummy = Computation().extend(Op::nop(), {});
  mem.bind(dummy, 2);
  EXPECT_EQ(mem.read(0, 0, 99), kBottom);
  EXPECT_EQ(mem.peek(1, 0, 99), kBottom);
}

TEST(Msi, StrongerThanBackerOnTheSameRun) {
  // Same computation + schedule: MSI yields SC; BACKER may not (it only
  // promises LC). Both must be LC.
  Rng rng(11);
  const Dag d = gen::antichain(10);
  Rng orng(11);
  const Computation c = workload::random_ops(d, 2, 0.3, 0.7, orng);
  const Schedule s = greedy_schedule(c, 4);
  MsiMemory msi;
  BackerMemory backer;
  const ExecutionResult a = run_execution(c, s, msi);
  const ExecutionResult b = run_execution(c, s, backer);
  EXPECT_TRUE(sequentially_consistent(c, a.phi));
  EXPECT_TRUE(location_consistent(c, b.phi));
}

}  // namespace
}  // namespace ccmm
