#include "dag/precedence_oracle.hpp"

#include <gtest/gtest.h>

#include "core/sp_structure.hpp"
#include "dag/generators.hpp"
#include "enumerate/dag_enum.hpp"
#include "proc/random_program.hpp"
#include "util/resource.hpp"
#include "util/rng.hpp"

namespace ccmm {
namespace {

/// Pin an oracle byte-identical to Dag::precedes over every node pair,
/// including the ⊥ conventions.
void expect_matches_closure(const Dag& dag, const PrecedenceOracle& oracle) {
  const std::size_t n = dag.node_count();
  ASSERT_EQ(oracle.node_count(), n);
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_TRUE(oracle.precedes(kBottom, u));
    EXPECT_FALSE(oracle.precedes(u, kBottom));
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(oracle.precedes(u, v), dag.precedes(u, v))
          << oracle.kind() << " disagrees on " << u << " -> " << v;
      EXPECT_EQ(oracle.preceq(u, v), dag.preceq(u, v));
    }
  }
  EXPECT_FALSE(oracle.precedes(kBottom, kBottom));
}

TEST(ClosureOracle, MatchesDagPrecedes) {
  Rng rng(7);
  const Dag dag = gen::random_dag(40, 0.12, rng);
  const ClosureOracle oracle(dag);
  EXPECT_STREQ(oracle.kind(), "closure");
  expect_matches_closure(dag, oracle);
}

TEST(ChainOracle, ExhaustiveSmallDags) {
  // Every dag with id-upward edges on up to 6 nodes (2^15 shapes at
  // n=6): the chain oracle must agree with the closure on every pair.
  for (std::size_t n = 1; n <= 6; ++n) {
    std::size_t count = 0;
    for_each_topo_dag(n, [&](const Dag& dag) {
      // Spot-check densely at n<=5; sample the n=6 sweep to keep the
      // test quick (every 7th mask still covers ~4700 shapes).
      if (n == 6 && ++count % 7 != 0) return true;
      const ChainDecompositionOracle oracle(dag);
      expect_matches_closure(dag, oracle);
      EXPECT_GE(oracle.chain_count(), 1u);
      EXPECT_LE(oracle.chain_count(), n);
      return true;
    });
  }
}

TEST(ChainOracle, LayeredAndRandomDags) {
  Rng rng(1234);
  for (int trial = 0; trial < 8; ++trial) {
    const Dag dag = trial % 2 == 0
                        ? gen::random_dag(60, 0.08 + 0.04 * trial, rng)
                        : gen::layered({4, 7, 5, 8, 6, 3}, 0.3, rng);
    const ChainDecompositionOracle oracle(dag);
    expect_matches_closure(dag, oracle);
  }
}

TEST(ChainOracle, LargeLayeredSampledAgainstClosure) {
  Rng rng(99);
  std::vector<std::size_t> widths(100, 100);  // 10k nodes, width ~100
  const Dag dag = gen::layered(widths, 0.05, rng);
  const ChainDecompositionOracle oracle(dag);
  dag.ensure_closure();
  const auto n = static_cast<NodeId>(dag.node_count());
  for (int i = 0; i < 200000; ++i) {
    const NodeId u = static_cast<NodeId>(rng.below(n));
    const NodeId v = static_cast<NodeId>(rng.below(n));
    ASSERT_EQ(oracle.precedes(u, v), dag.precedes(u, v))
        << u << " -> " << v;
  }
  // O(n·chains) words, strictly below the closure's n²/4 bytes here.
  EXPECT_LT(oracle.memory_bytes(), dag.node_count() * dag.node_count() / 4);
}

TEST(SpOrderOracle, ExhaustiveOnSmallCilkPrograms) {
  Rng rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    proc::RandomCilkOptions opt;
    opt.target_ops = 5 + trial % 40;
    opt.spawn_prob = 0.25;
    opt.call_prob = 0.10;
    opt.sync_prob = 0.12;
    const Computation c = proc::random_cilk(opt, rng);
    ASSERT_NE(c.sp_structure(), nullptr);
    const auto oracle = make_sp_order_oracle(*c.sp_structure());
    EXPECT_STREQ(oracle->kind(), "sp-order");
    expect_matches_closure(c.dag(), *oracle);
  }
}

TEST(SpOrderOracle, LargeCilkProgramSampledAgainstClosure) {
  Rng rng(5);
  proc::RandomCilkOptions opt;
  opt.target_ops = 10000;
  opt.nlocations = 16;
  const Computation c = proc::random_cilk(opt, rng);
  ASSERT_NE(c.sp_structure(), nullptr);
  const auto oracle = make_sp_order_oracle(*c.sp_structure());
  const Dag& dag = c.dag();
  ASSERT_EQ(oracle->node_count(), dag.node_count());

  // Both labelings must be linear extensions (checked on every edge)...
  const auto& eng = oracle->english();
  const auto& heb = oracle->hebrew();
  for (NodeId u = 0; u < dag.node_count(); ++u)
    for (const NodeId v : dag.succ(u)) {
      ASSERT_LT(eng[u], eng[v]);
      ASSERT_LT(heb[u], heb[v]);
    }
  // ...and their intersection must be the exact partial order.
  dag.ensure_closure();
  const auto n = static_cast<NodeId>(dag.node_count());
  for (int i = 0; i < 200000; ++i) {
    const NodeId u = static_cast<NodeId>(rng.below(n));
    const NodeId v = static_cast<NodeId>(rng.below(n));
    ASSERT_EQ(oracle->precedes(u, v), dag.precedes(u, v)) << u << " " << v;
  }
}

TEST(MakeOracle, AutoSelection) {
  Rng rng(3);

  // An SP parse wins regardless of size.
  proc::RandomCilkOptions opt;
  opt.target_ops = 30;
  const Computation c = proc::random_cilk(opt, rng);
  const auto sp =
      make_oracle(c.dag(), c.sp_structure().get(), OracleOptions{});
  EXPECT_STREQ(sp->kind(), "sp-order");

  // No parse, small dag: closure.
  const Dag small = gen::random_dag(50, 0.2, rng);
  EXPECT_STREQ(make_oracle(small, nullptr, OracleOptions{})->kind(),
               "closure");

  // No parse, past the threshold, narrow dag: chains undercut n²/4.
  // (Needs genuinely large n — at n=100 the closure is only 2.5KB and
  // auto correctly keeps it.)
  OracleOptions tight;
  tight.closure_threshold = 64;
  const Dag big = gen::layered(std::vector<std::size_t>(400, 5), 0.8, rng);
  EXPECT_STREQ(make_oracle(big, nullptr, tight)->kind(), "chain");

  // Explicit requests are honored.
  OracleOptions force;
  force.choice = OracleChoice::kChain;
  EXPECT_STREQ(make_oracle(small, nullptr, force)->kind(), "chain");
  force.choice = OracleChoice::kClosure;
  EXPECT_STREQ(make_oracle(big, nullptr, force)->kind(), "closure");
  force.choice = OracleChoice::kSpOrder;
  EXPECT_STREQ(
      make_oracle(c.dag(), c.sp_structure().get(), force)->kind(),
      "sp-order");
}

TEST(MakeOracle, AutoPricesTheChainCoverBeforeBuildingIt) {
  // An antichain past the closure threshold: every node is its own
  // chain, so the chain table would hold n² words — 16× the closure.
  // kAuto must price the cover first and build only the closure, so
  // the process's peak RSS rises by a small multiple of its bytes.
  const std::size_t n = 20'000;
  const Dag antichain(n);
  const std::size_t before = current_peak_rss_bytes();
  const auto oracle = make_oracle(antichain, nullptr, OracleOptions{});
  const std::size_t rise = current_peak_rss_bytes() - before;
  EXPECT_STREQ(oracle->kind(), "closure");
  EXPECT_LE(rise, 3 * oracle->memory_bytes());
}

TEST(SpOrderOracle, HandlesPlainCallsAndNestedSyncs) {
  // Dedicated regressions for the Hebrew replay's tricky events: kAdopt
  // (plain call: serial in both orders) and nested syncs with multiple
  // pending children (reverse spawn order). random_cilk exercises these,
  // but only probabilistically — force them here.
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    proc::RandomCilkOptions opt;
    opt.target_ops = 24;
    opt.spawn_prob = 0.35;
    opt.call_prob = 0.25;
    opt.sync_prob = 0.05;  // rare syncs => many pending children per sync
    opt.max_live_strands = 16;
    const Computation c = proc::random_cilk(opt, rng);
    ASSERT_NE(c.sp_structure(), nullptr);
    expect_matches_closure(c.dag(), *make_sp_order_oracle(*c.sp_structure()));
  }
}

}  // namespace
}  // namespace ccmm
