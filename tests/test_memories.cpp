// The memory subsystems against the model checkers: SC memory generates
// SC executions, the LC oracle generates LC (and frequently non-SC)
// executions, the weak adversary gets caught.
#include <gtest/gtest.h>

#include "exec/lc_memory.hpp"
#include "exec/sc_memory.hpp"
#include "exec/sim_machine.hpp"
#include "exec/weak_memory.hpp"
#include "exec/workload.hpp"
#include "helpers.hpp"

namespace ccmm {
namespace {

Computation racy(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const Dag d = gen::random_dag(n, 0.15, rng);
  return workload::random_ops(d, 2, 0.4, 0.4, rng);
}

TEST(ScMemory, SerialExecutionIsSequentiallyConsistent) {
  ScMemory mem;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Computation c = racy(8, seed);
    const ExecutionResult r = run_serial(c, mem);
    EXPECT_TRUE(is_valid_observer(c, r.phi));
    EXPECT_TRUE(sequentially_consistent(c, r.phi)) << seed;
  }
}

TEST(ScMemory, ParallelSchedulesStaySC) {
  ScMemory mem;
  Rng rng(3);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Computation c = racy(12, seed);
    const Schedule s = work_stealing_schedule(c, 4, rng);
    const ExecutionResult r = run_execution(c, s, mem);
    EXPECT_TRUE(sequentially_consistent(c, r.phi)) << seed;
  }
}

TEST(ScMemory, PhiIsLastWriterOfTraceOrder) {
  ScMemory mem;
  const Computation c = racy(10, 42);
  const ExecutionResult r = run_serial(c, mem);
  const ObserverFunction w =
      last_writer(c, c.dag().topological_order());
  EXPECT_EQ(r.phi, w);
}

TEST(ScMemory, StatsCountReadsAndWrites) {
  ScMemory mem;
  ComputationBuilder b;
  const NodeId w = b.write(0);
  b.read(0, {w});
  b.read(0, {w});
  const Computation c = std::move(b).build();
  const ExecutionResult r = run_serial(c, mem);
  EXPECT_EQ(r.memory_stats.writes, 1u);
  EXPECT_EQ(r.memory_stats.reads, 2u);
}

TEST(LcOracle, AlwaysLocationConsistent) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    LcOracleMemory mem(seed);
    const Computation c = racy(10, seed * 31);
    const ExecutionResult r = run_serial(c, mem);
    EXPECT_TRUE(is_valid_observer(c, r.phi)) << seed;
    EXPECT_TRUE(location_consistent(c, r.phi)) << seed;
  }
}

TEST(LcOracle, SeparatesLcFromSc) {
  // Across seeds, some run must be LC but not SC (the oracle's whole
  // point). Use a racy multi-location workload.
  std::size_t non_sc = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    LcOracleMemory mem(seed);
    Rng rng(seed);
    const Dag d = gen::antichain(6);
    const Computation c = workload::random_ops(d, 2, 0.3, 0.7, rng);
    const ExecutionResult r = run_serial(c, mem);
    EXPECT_TRUE(location_consistent(c, r.phi));
    if (!sequentially_consistent(c, r.phi)) ++non_sc;
  }
  EXPECT_GT(non_sc, 0u);
}

TEST(LcOracle, DeterministicPerSeed) {
  const Computation c = racy(10, 5);
  LcOracleMemory m1(9), m2(9);
  const ExecutionResult a = run_serial(c, m1);
  const ExecutionResult b = run_serial(c, m2);
  EXPECT_EQ(a.phi, b.phi);
}

TEST(WeakMemory, ProducesValidObserverFunctions) {
  // Even the adversary cannot fake condition 2.2 — it only serves writes
  // that already executed.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    WeakMemory mem(seed);
    const Computation c = racy(10, seed * 7);
    const ExecutionResult r = run_serial(c, mem);
    const auto v = validate_observer(c, r.phi);
    EXPECT_TRUE(v.ok) << v.reason;
  }
}

TEST(WeakMemory, GetsCaughtByTheCheckers) {
  // Over enough seeds the adversary must violate WW somewhere — and any
  // WW violation is a fortiori an NN/LC/SC violation (Theorem 21 chain).
  std::size_t ww_violations = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    WeakMemory mem(seed);
    Rng rng(seed);
    const Dag d = gen::chain(8);
    const Computation c = workload::random_ops(d, 1, 0.5, 0.5, rng);
    const ExecutionResult r = run_serial(c, mem);
    if (!qdag_consistent(c, r.phi, DagPred::kWW)) {
      ++ww_violations;
      EXPECT_FALSE(qdag_consistent(c, r.phi, DagPred::kNN));
      EXPECT_FALSE(location_consistent(c, r.phi));
    }
  }
  EXPECT_GT(ww_violations, 0u);
}

TEST(Execution, RejectsMismatchedSchedule) {
  ScMemory mem;
  const Computation c = racy(5, 1);
  const Computation other = racy(6, 2);
  const Schedule s = serial_schedule(other);
  EXPECT_THROW((void)run_execution(c, s, mem), std::logic_error);
}

TEST(Execution, TraceRecordsEveryNodeOnce) {
  ScMemory mem;
  const Computation c = racy(9, 3);
  const ExecutionResult r = run_serial(c, mem);
  EXPECT_EQ(r.trace.events.size(), c.node_count());
  std::vector<bool> seen(c.node_count(), false);
  for (const auto& e : r.trace.events) {
    EXPECT_FALSE(seen[e.node]);
    seen[e.node] = true;
  }
}

}  // namespace
}  // namespace ccmm
