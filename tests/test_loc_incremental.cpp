// Differential tests for the incremental per-location kernel
// (core/loc_incremental.hpp): after consuming any prefix of the event
// stream, finalize_into must produce verdicts byte-identical — valid,
// violated mask, AND detail string — to a fresh state that consumed
// the same prefix in one batch advance. The last-writer function of
// any linear extension must give the clean row after every prefix —
// the lemma that lets the engine skip locations the arrival order
// witnesses. The engine-level feed fuzz then pins that the engine's
// verdicts are independent of the feed sizes the stream was cut into,
// and the *Parallel* test pins sharded runs (on a pool of their own,
// under TSan in CI) against serial ones.
#include "core/loc_incremental.hpp"

#include <gtest/gtest.h>

#include "core/last_writer.hpp"
#include "dag/generators.hpp"
#include "dag/topsort.hpp"
#include "enumerate/sampling.hpp"
#include "enumerate/universe.hpp"
#include "exec/backer.hpp"
#include "exec/sc_memory.hpp"
#include "exec/weak_memory.hpp"
#include "exec/workload.hpp"
#include "kernel_harness.hpp"
#include "proc/random_program.hpp"
#include "reference_trace.hpp"
#include "trace/large_check.hpp"
#include "trace/session_kernel.hpp"
#include "util/rng.hpp"

namespace ccmm {
namespace {

/// Consume the stream in `chunk`-sized advances, and after EVERY chunk
/// compare the incremental verdict against a fresh state that consumed
/// the same prefix in one batch call.
void expect_prefix_equivalence(const Computation& c,
                               const ObserverFunction& phi,
                               std::uint32_t chunk) {
  const KernelHarness h(c, phi, kLargeCheckAll, kLargeCheckExt, true);
  const auto n = static_cast<std::uint32_t>(c.node_count());
  for (const KernelHarness::Task& t : h.tasks) {
    LocArena inc_arena;
    LocState inc;
    inc.init(h.ctx, t.loc, t.col, t.writers);
    for (std::uint32_t p0 = 0; p0 < n; p0 += chunk) {
      const std::uint32_t p1 = std::min(n, p0 + chunk);
      inc.advance(p0, p1, inc_arena);

      LocArena batch_arena;
      LocState batch;
      batch.init(h.ctx, t.loc, t.col, t.writers);
      batch.advance(0, p1, batch_arena);

      LocationCheck a;
      LocationCheck b;
      inc.finalize_into(a, inc_arena);
      batch.finalize_into(b, batch_arena);
      ASSERT_EQ(a.valid, b.valid)
          << "loc " << t.loc << " prefix " << p1 << ": " << a.detail
          << " vs " << b.detail;
      EXPECT_EQ(a.violated, b.violated)
          << "loc " << t.loc << " prefix " << p1;
      EXPECT_EQ(a.detail, b.detail) << "loc " << t.loc << " prefix " << p1;
      EXPECT_EQ(a.writers, b.writers);
    }
  }
}

/// Corrupt a few observer entries: arbitrary targets (⊥, random nodes,
/// unwritten locations) drive the 2.1/2.2/2.3 failure paths and the
/// model-violating quotients.
ObserverFunction corrupt(const Computation& c, ObserverFunction phi,
                         Rng& rng) {
  const std::size_t n = c.node_count();
  if (n == 0) return phi;
  const std::vector<Location> locs = c.written_locations();
  for (int k = 0; k < 2; ++k) {
    const Location l = locs.empty() || rng.chance(0.2)
                           ? Location{7}
                           : locs[rng.below(locs.size())];
    const auto u = static_cast<NodeId>(rng.below(n));
    const NodeId v =
        rng.chance(0.3) ? kBottom : static_cast<NodeId>(rng.below(n));
    phi.set(l, u, v);
  }
  return phi;
}

TEST(LocIncremental, PrefixMatchesBatchOnExhaustiveUniverses) {
  // Every (computation, valid observer) pair of the small universes the
  // repo's other differentials sweep, at chunk sizes that put the
  // boundaries everywhere.
  UniverseSpec one;
  one.max_nodes = 4;
  one.nlocations = 1;
  UniverseSpec two;
  two.max_nodes = 3;
  two.nlocations = 2;
  for (const UniverseSpec& spec : {one, two}) {
    for_each_pair(spec,
                  [&](const Computation& c, const ObserverFunction& phi) {
                    for (const std::uint32_t chunk : {1u, 2u, 3u})
                      expect_prefix_equivalence(c, phi, chunk);
                    return true;
                  });
  }
}

TEST(LocIncremental, PrefixMatchesBatchOnExhaustiveSixNodeComputations) {
  // Exhaustive computations up to 6 nodes (nop-free, ≤2 writers per
  // location keeps the sweep in seconds); observers are sampled —
  // alternating valid and corrupted — since the full pair universe at
  // this size is astronomically large.
  UniverseSpec spec;
  spec.max_nodes = 6;
  spec.nlocations = 1;
  spec.include_nop = false;
  spec.max_writes_per_location = 2;
  Rng rng(2026);
  std::size_t i = 0;
  for_each_computation(spec, [&](const Computation& c) {
    ObserverFunction phi = random_observer(c, rng);
    if (++i % 2 == 0) {
      expect_prefix_equivalence(c, phi, 2);
    } else {
      expect_prefix_equivalence(c, corrupt(c, std::move(phi), rng), 3);
    }
    return true;
  });
}

TEST(LocIncremental, PrefixMatchesBatchOnGeneratedPrograms) {
  Rng rng(97);
  std::vector<std::pair<Computation, ObserverFunction>> instances;
  {
    const Computation c = workload::random_ops(gen::random_dag(60, 0.1, rng),
                                               5, 0.45, 0.45, rng);
    WeakMemory mem(3);
    const Schedule s = greedy_schedule(c, 3);
    auto phi = run_execution(c, s, mem).phi;
    instances.emplace_back(c, phi);
    instances.emplace_back(c, corrupt(c, std::move(phi), rng));
  }
  {
    proc::RandomCilkOptions opt;
    opt.target_ops = 80;
    opt.nlocations = 4;
    const Computation c = proc::random_cilk(opt, rng);
    WeakMemory mem(7);
    const Schedule s = greedy_schedule(c, 2);
    instances.emplace_back(c, run_execution(c, s, mem).phi);
  }
  {
    const Computation c = workload::random_ops(
        gen::layered({5, 7, 7, 5}, 0.3, rng), 6, 0.4, 0.4, rng);
    ScMemory mem;
    auto phi = run_serial(c, mem).phi;
    instances.emplace_back(c, corrupt(c, std::move(phi), rng));
  }
  for (const auto& [c, phi] : instances)
    for (const std::uint32_t chunk : {1u, 7u, 64u})
      expect_prefix_equivalence(c, phi, chunk);
}

TEST(LocIncremental, LastWriterOfAnyLinearExtensionGivesTheCleanRow) {
  // The witnessed-location lemma: when Φ(l,·) is the last-writer
  // function of a linear extension T, every model the kernel decides
  // holds at l over every scan prefix, so the kernel's row is the clean
  // row {loc, valid, violated 0, writers |W|, detail ""} after any
  // span — whatever T is, however the scan order is cut.
  Rng rng(167);
  std::vector<Computation> comps;
  for (int k = 0; k < 2; ++k) {
    proc::RandomCilkOptions opt;
    opt.target_ops = 600;
    opt.nlocations = 4;
    comps.push_back(proc::random_cilk(opt, rng));
  }
  comps.push_back(workload::random_ops(gen::layered({6, 9, 9, 6}, 0.3, rng),
                                       5, 0.4, 0.4, rng));
  comps.push_back(workload::random_ops(gen::random_dag(300, 0.03, rng), 6,
                                       0.4, 0.4, rng));
  for (const Computation& c : comps) {
    for (int round = 0; round < 3; ++round) {
      const ObserverFunction phi =
          last_writer(c, greedy_random_topological_sort(c.dag(), rng));
      const KernelHarness h(c, phi, kLargeCheckAll, kLargeCheckExt, true);
      const auto n = static_cast<std::uint32_t>(c.node_count());
      for (const std::uint32_t chunk : {1u, 7u, 64u, 4096u}) {
        for (const KernelHarness::Task& t : h.tasks) {
          LocArena arena;
          LocState st;
          st.init(h.ctx, t.loc, t.col, t.writers);
          for (std::uint32_t p0 = 0; p0 < n; p0 += chunk) {
            st.advance(p0, std::min(n, p0 + chunk), arena);
            LocationCheck got;
            st.finalize_into(got, arena);
            ASSERT_TRUE(got.valid) << "loc " << t.loc << ": " << got.detail;
            ASSERT_EQ(got.violated, 0u) << "loc " << t.loc << ": "
                                        << got.detail;
            ASSERT_EQ(got.detail, "");
            ASSERT_EQ(got.loc, t.loc);
            ASSERT_EQ(got.writers, t.writers.size());
          }
        }
      }
    }
  }
}

/// Point a few read events at other writes of their location: stale
/// ones violate models, forward ones exercise the oracle and the
/// validity scan — the trace-level twin of corrupt().
Trace corrupt_trace(const Computation& c, const Trace& trace, Rng& rng) {
  std::vector<BinaryTraceEvent> events = trace.events.to_vector();
  for (int k = 0; k < 4; ++k) {
    BinaryTraceEvent& e = events[rng.below(events.size())];
    const Op o = c.op(e.node);
    if (!o.is_read()) continue;
    const std::vector<NodeId> ws = c.writers(o.loc);
    if (!ws.empty()) e.observed = ws[rng.below(ws.size())];
  }
  return Trace(std::move(events));
}

/// The execution-order binary records of a trace.
std::vector<BinaryTraceEvent> records_in_order(const Trace& trace) {
  std::vector<BinaryTraceEvent> recs;
  for (const std::uint32_t i : reference_seq_order(trace))
    recs.push_back(trace.events[i]);
  return recs;
}

void expect_same_verdicts(const LargeCheckReport& got,
                          const LargeCheckReport& want,
                          const std::string& ctx) {
  ASSERT_EQ(got.valid_observer, want.valid_observer) << ctx << got.detail;
  EXPECT_EQ(got.satisfied, want.satisfied) << ctx;
  EXPECT_EQ(got.detail, want.detail) << ctx;
  ASSERT_EQ(got.locations.size(), want.locations.size()) << ctx;
  for (std::size_t i = 0; i < got.locations.size(); ++i) {
    EXPECT_EQ(got.locations[i].loc, want.locations[i].loc) << ctx;
    EXPECT_EQ(got.locations[i].valid, want.locations[i].valid) << ctx;
    EXPECT_EQ(got.locations[i].violated, want.locations[i].violated) << ctx;
    EXPECT_EQ(got.locations[i].writers, want.locations[i].writers) << ctx;
    EXPECT_EQ(got.locations[i].detail, want.locations[i].detail) << ctx;
  }
}

TEST(LocIncremental, EngineChunkFuzzMatchesDefault) {
  // The engine must produce identical reports however the stream is
  // cut: feed sizes put the span boundaries everywhere the incremental
  // kernel's batching cares about, and every cut must agree with the
  // whole-observer run.
  Rng rng(113);
  std::vector<std::pair<Computation, Trace>> instances;
  {
    proc::RandomCilkOptions opt;
    opt.target_ops = 3000;
    opt.nlocations = 8;
    const Computation c = proc::random_cilk(opt, rng);
    ScMemory mem;
    const Trace trace = run_serial(c, mem).trace;
    instances.emplace_back(c, trace);
    instances.emplace_back(c, corrupt_trace(c, trace, rng));
  }
  {
    const Computation c = workload::random_ops(
        gen::random_dag(500, 0.02, rng), 10, 0.4, 0.4, rng);
    WeakMemory mem(5);
    const Schedule s = greedy_schedule(c, 4);
    instances.emplace_back(c, run_execution(c, s, mem).trace);
  }
  for (const auto& [c, trace] : instances) {
    LargeCheckOptions base;
    base.models = kLargeCheckExt;
    base.parallel = false;
    const LargeCheckReport want =
        large_check(c, observer_from_trace(c, trace), base);
    expect_same_verdicts(large_check_trace(c, trace, base), want, "trace");
    const std::vector<BinaryTraceEvent> recs = records_in_order(trace);
    for (const std::size_t feed : {1u, 7u, 64u, 4096u}) {
      SessionOptions sopt;
      sopt.models = kLargeCheckExt;
      CheckSession session(c, sopt);
      for (std::size_t at = 0; at < recs.size(); at += feed)
        ASSERT_TRUE(session.feed(recs.data() + at,
                                 std::min(feed, recs.size() - at)))
            << session.error();
      expect_same_verdicts(session.finish(), want,
                           "feed=" + std::to_string(feed));
    }
  }
}

TEST(LocIncrementalParallel, ShardedMatchesSerial) {
  // Big enough that every span and the mask-sweep finalize clear the
  // sharding threshold, with a pool of its own so the shards really
  // run on four workers even on single-core CI; runs under TSan in the
  // sanitizer job. The corrupted inputs send validity failures and
  // model violations through the shards. The trace is a 4-processor
  // BACKER run, where every location has a stale read: a serial trace
  // leaves every location witnessed, and then no kernel span runs.
  Rng rng(131);
  proc::RandomCilkOptions opt;
  opt.target_ops = 40'000;
  opt.nlocations = 8;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory mem;
  const ExecutionResult run = run_serial(c, mem);
  const ObserverFunction bad = corrupt(c, ObserverFunction(run.phi), rng);
  BackerMemory backer;
  const Trace stale = run_execution(c, greedy_schedule(c, 4), backer).trace;
  ASSERT_EQ(reference_disagreeing_locations(c, stale),
            c.written_locations());
  const Trace bad_trace = corrupt_trace(c, stale, rng);

  ThreadPool pool(4);
  LargeCheckOptions par;
  par.models = kLargeCheckExt;
  par.parallel = true;
  par.pool = &pool;
  LargeCheckOptions seq = par;
  seq.parallel = false;
  for (const ObserverFunction* phi : {&run.phi, &bad}) {
    const LargeCheckReport a = large_check(c, *phi, par);
    const LargeCheckReport b = large_check(c, *phi, seq);
    EXPECT_TRUE(a.pipelined);
    EXPECT_FALSE(b.pipelined);
    EXPECT_GT(a.shards, 1u);
    expect_same_verdicts(a, b, "observer");
  }
  for (const Trace* trace : {&stale, &bad_trace}) {
    const LargeCheckReport a = large_check_trace(c, *trace, par);
    const LargeCheckReport b = large_check_trace(c, *trace, seq);
    EXPECT_TRUE(a.pipelined);
    expect_same_verdicts(a, b, "trace");
  }
}

TEST(LocIncremental, LazyOracleBuildsOnlyWhenQueried) {
  // A serial trace observer points every observation backwards, so the
  // position filter discharges all 2.2 checks and the oracle is never
  // built; a forward-pointing corruption forces the build.
  Rng rng(151);
  proc::RandomCilkOptions opt;
  opt.target_ops = 3000;
  opt.nlocations = 4;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory mem;
  const ObserverFunction phi = run_serial(c, mem).phi;
  LargeCheckOptions lopt;
  lopt.models = kSuiteLC;
  const LargeCheckReport clean = large_check(c, phi, lopt);
  EXPECT_EQ(clean.oracle_kind, "sp-order");
  EXPECT_EQ(clean.oracle_memory_bytes, 0u);
  EXPECT_EQ(clean.oracle_build_millis, 0.0);

  // Point an early read at the LAST writer of its location: the pair
  // survives the position filter and must consult the oracle.
  ObserverFunction fwd = phi;
  const std::vector<Location> locs = c.written_locations();
  ASSERT_FALSE(locs.empty());
  bool planted = false;
  for (const Location l : locs) {
    const std::vector<NodeId> ws = c.writers(l);
    if (ws.size() < 2) continue;
    for (NodeId u = 0; u < c.node_count() && !planted; ++u) {
      const Op o = c.op(u);
      if (o.is_read() && o.loc == l && u < ws.back()) {
        fwd.set(l, u, ws.back());
        planted = true;
      }
    }
    if (planted) break;
  }
  ASSERT_TRUE(planted);
  const LargeCheckReport forced = large_check(c, fwd, lopt);
  EXPECT_EQ(forced.oracle_kind, "sp-order");
  EXPECT_GT(forced.oracle_memory_bytes, 0u);
}

}  // namespace
}  // namespace ccmm
