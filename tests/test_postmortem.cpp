// Post-mortem analysis: verifying executions after the fact, including
// from reads-only information (all a real machine reveals).
#include "trace/postmortem.hpp"

#include <gtest/gtest.h>

#include "exec/lc_memory.hpp"
#include "exec/sc_memory.hpp"
#include "exec/weak_memory.hpp"
#include "exec/workload.hpp"
#include "models/compile.hpp"
#include "helpers.hpp"

namespace ccmm {
namespace {

TEST(Postmortem, VerifyExecutionReportsMembership) {
  ScMemory mem;
  const Computation c = workload::contended_counter(4);
  const ExecutionResult r = run_serial(c, mem);
  const auto report =
      verify_execution(c, r.phi, *builtin_model(kSuiteSC));
  EXPECT_TRUE(report.valid_observer);
  EXPECT_TRUE(report.in_model);
  EXPECT_NE(report.detail.find("SC"), std::string::npos);
}

TEST(Postmortem, VerifyExecutionFlagsInvalidObserver) {
  const Computation c = workload::contended_counter(2);
  ObserverFunction bogus(c.node_count());  // writes don't observe selves
  const auto report =
      verify_execution(c, bogus, *builtin_model(kSuiteLC));
  EXPECT_FALSE(report.valid_observer);
  EXPECT_FALSE(report.in_model);
  EXPECT_NE(report.detail.find("invalid"), std::string::npos);
}

TEST(Postmortem, ReadsProjectionKeepsOnlyReadRows) {
  ScMemory mem;
  const Computation c = workload::reduction(4);
  const ExecutionResult r = run_serial(c, mem);
  const ObserverFunction reads = reads_only_projection(c, r.phi);
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    for (const Location l : c.written_locations()) {
      if (o.reads(l))
        EXPECT_EQ(reads.get(l, u), r.phi.get(l, u));
      else
        EXPECT_EQ(reads.get(l, u), kBottom);
    }
  }
}

TEST(Postmortem, TraceRecordsTheProjectedReads) {
  ScMemory mem;
  const Computation c = workload::reduction(4);
  const ExecutionResult r = run_serial(c, mem);
  const ObserverFunction reads = reads_only_projection(c, r.phi);
  for (const BinaryTraceEvent& e : r.trace.events) {
    const Op o = c.op(e.node);
    if (o.is_read()) {
      EXPECT_EQ(e.observed, reads.get(o.loc, e.node)) << e.node;
    }
  }
}

TEST(Postmortem, CompletionFoundForScExecutions) {
  ScMemory mem;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const Computation c =
        workload::random_ops(gen::random_dag(7, 0.25, rng), 2, 0.5, 0.4, rng);
    const ExecutionResult r = run_serial(c, mem);
    const ObserverFunction reads = reads_only_projection(c, r.phi);
    const auto result =
        find_model_completion(c, reads, *builtin_model(kSuiteSC));
    ASSERT_TRUE(result.completion.has_value()) << seed;
    EXPECT_TRUE(builtin_model(kSuiteSC)->contains(c, *result.completion));
    for (NodeId u = 0; u < c.node_count(); ++u) {
      const Op o = c.op(u);
      if (o.is_read()) {
        EXPECT_EQ(result.completion->get(o.loc, u), reads.get(o.loc, u));
      }
    }
  }
}

TEST(Postmortem, NoCompletionForImpossibleReads) {
  // Two ordered reads that saw different writes in an impossible order:
  // r1 saw w2, then r2 (after r1) saw w1, with w1 ≺ w2. No LC completion.
  ComputationBuilder b;
  const NodeId w1 = b.write(0);
  const NodeId w2 = b.write(0, {w1});
  const NodeId r1 = b.read(0, {w2});
  b.read(0, {r1});
  const Computation c = std::move(b).build();
  ObserverFunction reads(c.node_count());
  reads.set(0, r1, w2);
  reads.set(0, 3, w1);  // r2 steps back to the overwritten write
  const auto result = find_model_completion(
      c, reads, *builtin_model(kSuiteLC));
  EXPECT_FALSE(result.completion.has_value());
  EXPECT_FALSE(result.exhausted);  // the space was fully searched
}

TEST(Postmortem, BudgetExhaustionReported) {
  Rng rng(9);
  const Computation c =
      workload::random_ops(gen::antichain(8), 1, 0.2, 0.8, rng);
  const ObserverFunction reads(c.node_count());
  const auto result = find_model_completion(
      c, reads, *builtin_model(kSuiteSC), /*budget=*/1);
  // With one completion tried, either it hit immediately or it reports
  // exhaustion; both are legal, but `tried` must respect the budget.
  EXPECT_LE(result.tried, 1u);
}

TEST(Postmortem, WeakExecutionsOftenHaveNoScCompletion) {
  std::size_t refuted = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    WeakMemory mem(seed);
    Rng rng(seed);
    const Computation c =
        workload::random_ops(gen::chain(7), 1, 0.5, 0.5, rng);
    const ExecutionResult r = run_serial(c, mem);
    const ObserverFunction reads = reads_only_projection(c, r.phi);
    const auto result = find_model_completion(
        c, reads, *builtin_model(kSuiteSC));
    if (!result.completion.has_value() && !result.exhausted) ++refuted;
  }
  EXPECT_GT(refuted, 0u);
}

}  // namespace
}  // namespace ccmm
