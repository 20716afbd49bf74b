// The oracle-backed race engine (analyze/race_oracle.hpp) is pinned
// byte-for-byte against the exhaustive pairwise engine: same race set —
// pairs, locations, kinds — on exhaustive small-dag enumeration and on
// random layered / fork-join / perturbed families, under every oracle
// choice and both enumeration paths (direct oracle pairs and the
// 64-anchor mask sweeps). summarize_races, the lints' scan, must give
// the pairwise set's size and its first k races for every k, on the
// same inputs and configurations, and under the SP-order oracle's
// inversion count wherever a parse is recorded.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "analyze/race_oracle.hpp"
#include "dag/generators.hpp"
#include "enumerate/dag_enum.hpp"
#include "exec/workload.hpp"
#include "proc/random_program.hpp"
#include "trace/race.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ccmm {
namespace {

using analyze::RaceScanOptions;
using analyze::RaceScanStats;

bool race_order(const Race& x, const Race& y) {
  if (x.a != y.a) return x.a < y.a;
  if (x.b != y.b) return x.b < y.b;
  return x.loc < y.loc;
}

std::vector<Race> sorted_pairwise(const Computation& c) {
  std::vector<Race> races = find_races_pairwise(c);
  std::sort(races.begin(), races.end(), race_order);
  return races;
}

constexpr std::size_t kTopK[] = {0, 1, 7, 64, SIZE_MAX};

/// summarize_races under `opt` must report the size of `expected` (the
/// pairwise set) and its first k races, for every k of kTopK.
void expect_summary_matches(const Computation& c,
                            const std::vector<Race>& expected,
                            const RaceScanOptions& opt,
                            const std::string& what) {
  for (const std::size_t k : kTopK) {
    RaceScanStats st;
    const analyze::RaceSummary got = analyze::summarize_races(c, k, opt, &st);
    EXPECT_EQ(got.count, expected.size()) << what << " k=" << k;
    EXPECT_EQ(st.races, expected.size()) << what << " k=" << k;
    ASSERT_EQ(got.smallest.size(), std::min(k, expected.size()))
        << what << " k=" << k;
    for (std::size_t i = 0; i < got.smallest.size(); ++i)
      EXPECT_EQ(got.smallest[i], expected[i])
          << what << " k=" << k << " race " << i;
  }
}

/// With the parse recorded, summarize_races counts by SP-order
/// inversions: auto and forced sp-order must both match pairwise.
void expect_order_summary_matches(const Computation& sp,
                                  const std::string& what) {
  const std::vector<Race> expected = sorted_pairwise(sp);
  for (const OracleChoice choice :
       {OracleChoice::kAuto, OracleChoice::kSpOrder}) {
    RaceScanOptions opt;
    opt.oracle.choice = choice;
    RaceScanStats st;
    (void)analyze::summarize_races(sp, 1, opt, &st);
    if (!st.oracle_kind.empty()) {
      EXPECT_EQ(st.oracle_kind, "sp-order") << what;
    }
    expect_summary_matches(sp, expected, opt, what + " [sp-order]");
  }
}

/// Every oracle choice and both enumeration paths must reproduce the
/// pairwise race set exactly.
void expect_matches_pairwise(const Computation& c, const char* what) {
  const std::vector<Race> expected = sorted_pairwise(c);
  struct Config {
    OracleChoice choice;
    std::size_t threshold;  // direct-pair threshold: SIZE_MAX = all
                            // direct, 0 = all racy locations masked
    const char* name;
  };
  const Config configs[] = {
      {OracleChoice::kAuto, SIZE_MAX, "auto/direct"},
      {OracleChoice::kAuto, 0, "auto/mask"},
      {OracleChoice::kClosure, SIZE_MAX, "closure/direct"},
      {OracleChoice::kClosure, 0, "closure/mask"},
      {OracleChoice::kChain, SIZE_MAX, "chain/direct"},
      {OracleChoice::kChain, 0, "chain/mask"},
  };
  for (const Config& cfg : configs) {
    RaceScanOptions opt;
    opt.oracle.choice = cfg.choice;
    opt.direct_pair_threshold = cfg.threshold;
    const std::vector<Race> got = analyze::find_races_oracle(c, opt);
    ASSERT_EQ(got.size(), expected.size())
        << what << " [" << cfg.name << "]";
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << what << " [" << cfg.name
                                     << "] race " << i;
    }
    EXPECT_EQ(analyze::has_race_oracle(c, opt), !expected.empty())
        << what << " [" << cfg.name << "]";
    expect_summary_matches(c, expected, opt,
                           std::string(what) + " [" + cfg.name + "]");
    const std::optional<Race> first = analyze::find_first_race(c, opt);
    ASSERT_EQ(first.has_value(), !expected.empty())
        << what << " [" << cfg.name << "]";
    if (first.has_value() && !expected.empty()) {
      // find_first_race reports each racy location's phase-1 race and
      // keeps the (a, b, loc)-least; that race must be in the full set.
      EXPECT_TRUE(std::binary_search(expected.begin(), expected.end(),
                                     *first, race_order))
          << what << " [" << cfg.name << "]";
    }
  }
}

Op op_from_index(std::size_t k) {
  switch (k) {
    case 0:
      return Op::write(0);
    case 1:
      return Op::read(0);
    case 2:
      return Op::write(1);
    case 3:
      return Op::read(1);
    default:
      return Op::nop();
  }
}

TEST(RaceOracle, ExhaustiveDagsExhaustiveOpsN3) {
  // All 8 topo-dags on 3 nodes x all 125 op assignments.
  for_each_topo_dag(3, [&](const Dag& dag) {
    for (std::size_t code = 0; code < 125; ++code) {
      std::vector<Op> ops(3);
      std::size_t rem = code;
      for (std::size_t u = 0; u < 3; ++u) {
        ops[u] = op_from_index(rem % 5);
        rem /= 5;
      }
      expect_matches_pairwise(Computation(dag, ops), "n=3 exhaustive");
    }
    return true;
  });
}

TEST(RaceOracle, ExhaustiveDagsExhaustiveOpsN4) {
  // All 64 topo-dags on 4 nodes x all 625 op assignments over two
  // locations.
  for_each_topo_dag(4, [&](const Dag& dag) {
    for (std::size_t code = 0; code < 625; ++code) {
      std::vector<Op> ops(4);
      std::size_t rem = code;
      for (std::size_t u = 0; u < 4; ++u) {
        ops[u] = op_from_index(rem % 5);
        rem /= 5;
      }
      expect_matches_pairwise(Computation(dag, ops), "n=4 exhaustive");
    }
    return true;
  });
}

TEST(RaceOracle, ExhaustiveDagsRandomOpsN5N6) {
  Rng rng(0xD1FF);
  for (std::size_t n = 5; n <= 6; ++n) {
    std::size_t visited = 0;
    for_each_topo_dag(n, [&](const Dag& dag) {
      // n=6 has 2^15 dags: thin the sweep, keep it exhaustive at n=5.
      if (n == 6 && (visited++ % 23) != 0) return true;
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<Op> ops(n);
        for (std::size_t u = 0; u < n; ++u)
          ops[u] = op_from_index(rng.below(5));
        expect_matches_pairwise(Computation(dag, ops), "n=5/6 sweep");
      }
      return true;
    });
  }
}

TEST(RaceOracle, RandomLayeredFamily) {
  Rng rng(0xAB1);
  for (int trial = 0; trial < 6; ++trial) {
    const Dag dag = gen::layered({4, 6, 6, 4}, 0.35, rng);
    const Computation c = workload::random_ops(dag, 3, 0.4, 0.4, rng);
    expect_matches_pairwise(c, "layered");
  }
}

TEST(RaceOracle, RandomSparseFamily) {
  Rng rng(0xAB2);
  for (int trial = 0; trial < 6; ++trial) {
    const Dag dag = gen::random_dag(24, 0.12, rng);
    const Computation c = workload::random_ops(dag, 4, 0.35, 0.45, rng);
    expect_matches_pairwise(c, "random");
  }
}

TEST(RaceOracle, CilkFamilyWithAndWithoutParse) {
  Rng rng(0xAB3);
  proc::RandomCilkOptions opt;
  opt.target_ops = 120;
  opt.nlocations = 5;
  for (int trial = 0; trial < 4; ++trial) {
    const Computation sp = proc::random_cilk(opt, rng);
    // With the parse: make_oracle auto picks sp-order. Without: the
    // general-dag tiers. Same dag, same race set either way.
    RaceScanOptions sp_opt;
    const std::vector<Race> via_sp = analyze::find_races_oracle(sp, sp_opt);
    const std::vector<Race> expected = sorted_pairwise(sp);
    EXPECT_EQ(via_sp, expected);
    expect_order_summary_matches(sp, "cilk/parse");
    const Computation general(Dag(sp.node_count(), sp.dag().edges()),
                              sp.ops());
    expect_matches_pairwise(general, "cilk/parse-dropped");
  }
}

TEST(RaceOracle, SmallCilkProgramsCountByOrderInversions) {
  // Many small fork/join programs, few locations and a high write
  // share: the SP-order count, flags and top-k walk against pairwise on
  // racy, race-free, reader-only and single-accessor locations alike.
  Rng rng(0xAB8);
  std::size_t racy = 0;
  for (int trial = 0; trial < 150; ++trial) {
    proc::RandomCilkOptions opt;
    opt.target_ops = 2 + rng.below(60);
    opt.nlocations = 1 + rng.below(4);
    opt.write_prob = 0.2 + 0.6 * rng.uniform();
    const Computation sp = proc::random_cilk(opt, rng);
    if (!find_races_pairwise(sp).empty()) ++racy;
    expect_order_summary_matches(sp, "small cilk " + std::to_string(trial));
  }
  EXPECT_GT(racy, 50u);
}

TEST(RaceOracle, PerturbedCilkFamily) {
  // Fork/join dags plus random forward edges: no longer
  // series-parallel, exercises the general-dag oracles on
  // SP-adjacent shapes.
  Rng rng(0xAB4);
  proc::RandomCilkOptions opt;
  opt.target_ops = 90;
  opt.nlocations = 4;
  for (int trial = 0; trial < 4; ++trial) {
    const Computation sp = proc::random_cilk(opt, rng);
    std::vector<Edge> edges = sp.dag().edges();
    const std::size_t n = sp.node_count();
    for (int extra = 0; extra < 8; ++extra) {
      const NodeId u = static_cast<NodeId>(rng.below(n));
      const NodeId v = static_cast<NodeId>(rng.below(n));
      if (u < v) edges.push_back({u, v});
    }
    expect_matches_pairwise(Computation(Dag(n, edges), sp.ops()),
                            "cilk/perturbed");
  }
}

TEST(RaceOracle, WriterHeavyAntichainsStressMaskDedupe) {
  // Many parallel writers of the same locations: the writer/writer
  // dedupe in the mask path must emit each unordered pair exactly once
  // even when a location's anchors span chunk boundaries.
  Rng rng(0xAB5);
  for (const std::size_t writers : {20UL, 70UL, 130UL}) {
    Dag dag(writers, {});
    std::vector<Op> ops;
    for (std::size_t u = 0; u < writers; ++u)
      ops.push_back(u % 4 == 3 ? Op::read(u % 2) : Op::write(u % 2));
    expect_matches_pairwise(Computation(dag, ops), "antichain");
  }
}

TEST(RaceOracle, MaxRacesTruncates) {
  // An antichain of 40 writers to one location has 780 races.
  Dag dag(40, {});
  const Computation c(dag, std::vector<Op>(40, Op::write(0)));
  RaceScanOptions opt;
  opt.max_races = 17;
  RaceScanStats st;
  const std::vector<Race> races = analyze::find_races_oracle(c, opt, &st);
  EXPECT_EQ(races.size(), 17u);
  EXPECT_TRUE(st.truncated);
  RaceScanOptions all;
  RaceScanStats st_all;
  EXPECT_EQ(analyze::find_races_oracle(c, all, &st_all).size(), 780u);
  EXPECT_FALSE(st_all.truncated);
}

TEST(RaceOracle, StatsReportScanShape) {
  Rng rng(0xAB6);
  proc::RandomCilkOptions opt;
  opt.target_ops = 200;
  opt.nlocations = 4;
  const Computation c = proc::random_cilk(opt, rng);
  RaceScanOptions sopt;
  sopt.direct_pair_threshold = 0;  // force the mask path
  RaceScanStats st;
  const std::vector<Race> races = analyze::find_races_oracle(c, sopt, &st);
  EXPECT_EQ(st.races, races.size());
  EXPECT_EQ(st.oracle_kind, "sp-order");
  EXPECT_EQ(st.direct_locations, 0u);
  if (!races.empty()) {
    EXPECT_GT(st.racy_locations, 0u);
    EXPECT_GT(st.mask_groups, 0u);
  }
  const std::string rendered = st.to_string();
  EXPECT_NE(rendered.find("sp-order"), std::string::npos);
  EXPECT_NE(rendered.find("mask"), std::string::npos);
}

TEST(RaceOracle, EngineSelectionPolicy) {
  // SP parse recorded -> SP-bags.
  Rng rng(0xAB7);
  proc::RandomCilkOptions opt;
  opt.target_ops = 60;
  const Computation sp = proc::random_cilk(opt, rng);
  EXPECT_EQ(select_race_engine(sp), RaceEngine::kSpBags);

  // Small, no parse -> pairwise.
  const Computation small(Dag(8, {{0, 1}, {1, 2}}),
                          std::vector<Op>(8, Op::write(0)));
  EXPECT_EQ(select_race_engine(small), RaceEngine::kPairwise);

  // Past the cutoff, no parse -> oracle.
  std::vector<Edge> chain_edges;
  const std::size_t big_n = kPairwiseNodeCutoff + 8;
  for (NodeId u = 0; u + 1 < big_n; ++u) chain_edges.push_back({u, u + 1});
  const Computation big(Dag(big_n, chain_edges),
                        std::vector<Op>(big_n, Op::read(0)));
  EXPECT_EQ(select_race_engine(big), RaceEngine::kOracle);

  // find_races dispatches through the policy: the serial chain of
  // reads is race-free under every engine.
  EXPECT_TRUE(find_races(big).empty());
  EXPECT_FALSE(has_race(big));
}

// ---------------------------------------------------------------------
// Sharded-engine stress: explicit pools of several sizes must produce
// the identical race set (run under TSan by the *Parallel* CI filter).

class RaceOracleParallel : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RaceOracleParallel, ShardedScanMatchesSequential) {
  Rng rng(0xCAFE + GetParam());
  proc::RandomCilkOptions opt;
  opt.target_ops = 600;
  opt.nlocations = 24;  // plenty of shards
  const Computation c = proc::random_cilk(opt, rng);

  ThreadPool pool(GetParam());
  RaceScanOptions par;
  par.pool = &pool;
  par.parallel = true;
  RaceScanOptions seq;
  seq.parallel = false;
  const std::vector<Race> a = analyze::find_races_oracle(c, par);
  const std::vector<Race> b = analyze::find_races_oracle(c, seq);
  EXPECT_EQ(a, b);
  EXPECT_EQ(analyze::has_race_oracle(c, par),
            analyze::has_race_oracle(c, seq));
  EXPECT_EQ(analyze::find_first_race(c, par),
            analyze::find_first_race(c, seq));
}

TEST_P(RaceOracleParallel, CappedShardedScanStaysTruncated) {
  // The soft cap is shared mutable state across shards: hammer it from
  // a real pool and check the merge invariants hold.
  Rng rng(0x5EED + GetParam());
  proc::RandomCilkOptions opt;
  opt.target_ops = 500;
  opt.nlocations = 6;  // racy and writer-heavy
  const Computation c = proc::random_cilk(opt, rng);
  ThreadPool pool(GetParam());
  RaceScanOptions capped;
  capped.pool = &pool;
  capped.max_races = 25;
  capped.direct_pair_threshold = 0;  // mask path exercises chunk skips
  RaceScanStats st;
  const std::vector<Race> races = analyze::find_races_oracle(c, capped, &st);
  EXPECT_LE(races.size(), 25u);
  const std::size_t full = analyze::find_races_oracle(c).size();
  if (full > 25) {
    EXPECT_TRUE(st.truncated);
    EXPECT_EQ(races.size(), 25u);
  } else {
    EXPECT_EQ(races.size(), full);
  }
}

TEST_P(RaceOracleParallel, ShardedSummaryMatchesPairwise) {
  // Per-location SP-order tasks and the counting direct/mask tasks
  // (per-shard tallies) from a real pool: the count and the k smallest
  // must be the sequential scan's and the pairwise set's.
  Rng rng(0xF00D + GetParam());
  proc::RandomCilkOptions opt;
  opt.target_ops = 600;
  opt.nlocations = 12;
  const Computation sp = proc::random_cilk(opt, rng);
  const Computation general(Dag(sp.node_count(), sp.dag().edges()),
                            sp.ops());
  const std::vector<Race> expected = sorted_pairwise(sp);
  ThreadPool pool(GetParam());
  for (const Computation* c : {&sp, &general}) {
    for (const std::size_t threshold : {SIZE_MAX, std::size_t{0}}) {
      RaceScanOptions par;
      par.pool = &pool;
      par.direct_pair_threshold = threshold;
      expect_summary_matches(*c, expected, par,
                             c == &sp ? "parallel sp" : "parallel general");
      RaceScanOptions seq = par;
      seq.parallel = false;
      for (const std::size_t k : kTopK) {
        const analyze::RaceSummary a = analyze::summarize_races(*c, k, par);
        const analyze::RaceSummary b = analyze::summarize_races(*c, k, seq);
        EXPECT_EQ(a.count, b.count);
        EXPECT_EQ(a.smallest, b.smallest);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Pools, RaceOracleParallel,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace ccmm
