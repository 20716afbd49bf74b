#include "trace/large_check.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "exec/backer.hpp"
#include "exec/lc_memory.hpp"
#include "exec/sc_memory.hpp"
#include "exec/weak_memory.hpp"
#include "exec/workload.hpp"
#include "models/compile.hpp"
#include "proc/random_program.hpp"
#include "reference_models.hpp"
#include "trace/postmortem.hpp"
#include "trace/session_kernel.hpp"
#include "util/rng.hpp"

namespace ccmm {
namespace {

/// The streaming report must agree bit-for-bit with the paper's
/// definitions (tests/reference_models.hpp) on every model it claims to
/// decide.
void expect_matches_models(const Computation& c, const ObserverFunction& phi,
                           const LargeCheckOptions& base) {
  LargeCheckOptions opt = base;
  opt.models = kLargeCheckExt;
  const LargeCheckReport r = large_check(c, phi, opt);

  const ValidityResult validity = validate_observer(c, phi);
  ASSERT_EQ(r.valid_observer, validity.ok) << validity.reason << "\n"
                                           << r.detail;
  for (std::uint32_t bit = 1; bit <= kLargeCheckExt; bit <<= 1) {
    if ((kLargeCheckExt & bit) == 0) continue;
    EXPECT_EQ(r.in_model(bit), test::kernel_bits_by_definition(c, phi, bit))
        << suite_bit_name(bit) << ": " << r.detail;
  }
  if (r.valid_observer) {
    const bool any_violated =
        (r.satisfied & kLargeCheckExt) != kLargeCheckExt;
    EXPECT_EQ(any_violated, !r.detail.empty());
  }
}

std::vector<Computation> small_workloads() {
  std::vector<Computation> out;
  out.push_back(workload::reduction(4));
  out.push_back(workload::stencil(4, 3));
  out.push_back(workload::contended_counter(5));
  out.push_back(workload::matmul(2));
  out.push_back(workload::fork_join_array(2, 3, 4));
  Rng rng(17);
  for (int i = 0; i < 6; ++i)
    out.push_back(workload::random_ops(gen::random_dag(14, 0.2, rng), 3, 0.4,
                                       0.4, rng));
  return out;
}

TEST(LargeCheck, MatchesDefinitionsOnExecutions) {
  Rng rng(23);
  for (const Computation& c : small_workloads()) {
    {
      ScMemory mem;
      expect_matches_models(c, run_serial(c, mem).phi, {});
    }
    {
      WeakMemory mem(5);
      const Schedule s = greedy_schedule(c, 3);
      expect_matches_models(c, run_execution(c, s, mem).phi, {});
    }
    {
      LcOracleMemory mem(11);
      const Schedule s = work_stealing_schedule(c, 2, rng);
      expect_matches_models(c, run_execution(c, s, mem).phi, {});
    }
  }
}

TEST(LargeCheck, MatchesDefinitionsOnPerturbedObservers) {
  // Random corruptions cover invalid observers and model-breaking ones;
  // the verdicts must track the definitions through all of them.
  Rng rng(31);
  for (const Computation& c : small_workloads()) {
    WeakMemory mem(3);
    const Schedule s = greedy_schedule(c, 2);
    const ObserverFunction base = run_execution(c, s, mem).phi;
    const std::vector<Location> locs = c.written_locations();
    if (locs.empty()) continue;
    for (int trial = 0; trial < 20; ++trial) {
      ObserverFunction phi = base;
      for (int k = 0; k < 3; ++k) {
        const Location l = locs[rng.below(locs.size())];
        const auto u = static_cast<NodeId>(rng.below(c.node_count()));
        const std::vector<NodeId> ws = c.writers(l);
        const NodeId v = rng.chance(0.25)
                             ? kBottom
                             : ws[rng.below(ws.size())];
        phi.set(l, u, v);
      }
      expect_matches_models(c, phi, {});
    }
  }
}

TEST(LargeCheck, MatchesDefinitionsOnCilkPrograms) {
  Rng rng(47);
  for (int trial = 0; trial < 30; ++trial) {
    proc::RandomCilkOptions opt;
    opt.target_ops = 24 + trial;
    opt.nlocations = 4;
    const Computation c = proc::random_cilk(opt, rng);
    WeakMemory mem(trial);
    const Schedule s = greedy_schedule(c, 3);
    const ObserverFunction phi = run_execution(c, s, mem).phi;
    LargeCheckOptions base;
    expect_matches_models(c, phi, base);
    // The SP parse should be picked up automatically.
    const LargeCheckReport r = large_check(c, phi, base);
    EXPECT_EQ(r.oracle_kind, "sp-order");
  }
}

TEST(LargeCheck, TraceEntryAgreesWithVerifyExecution) {
  Rng rng(3);
  for (const Computation& c : small_workloads()) {
    WeakMemory mem(9);
    const Schedule s = greedy_schedule(c, 2);
    const ExecutionResult run = run_execution(c, s, mem);
    LargeCheckOptions opt;
    opt.models = kSuiteLC;
    const LargeCheckReport r = large_check_trace(c, run.trace, opt);
    const ObserverFunction phi = observer_from_trace(c, run.trace);
    const PostmortemReport ref =
        verify_execution(c, phi, *builtin_model(kSuiteLC));
    ASSERT_EQ(r.valid_observer, ref.valid_observer) << r.detail;
    EXPECT_EQ(r.in_model(kSuiteLC), ref.in_model) << r.detail;
    EXPECT_EQ(ref.in_model, test::lc_by_quotient(c, phi));
  }
}

TEST(LargeCheck, SerialTraceIsMemberOfEverything) {
  // A serial execution is sequentially consistent, so its completed
  // trace observer must land in every model of the suite — this pins
  // the last-write completion in observer_from_trace (an all-⊥
  // completion would fail LC on any trace with a post-write nop).
  Rng rng(83);
  for (const Computation& c : small_workloads()) {
    ScMemory mem;
    const ExecutionResult run = run_serial(c, mem);
    LargeCheckOptions opt;
    opt.models = kLargeCheckAll;
    const LargeCheckReport r = large_check_trace(c, run.trace, opt);
    ASSERT_TRUE(r.valid_observer) << r.detail;
    EXPECT_EQ(r.satisfied, kLargeCheckAll) << r.detail;
  }
  proc::RandomCilkOptions copt;
  copt.target_ops = 400;
  const Computation c = proc::random_cilk(copt, rng);
  ScMemory mem;
  const ExecutionResult run = run_serial(c, mem);
  const LargeCheckReport r = large_check_trace(c, run.trace, {});
  EXPECT_TRUE(r.valid_observer);
  EXPECT_EQ(r.satisfied & kSuiteLC, kSuiteLC) << r.detail;
}

TEST(LargeCheck, RejectsBrokenTraces) {
  const Computation c = workload::reduction(3);
  ScMemory mem;
  const ExecutionResult run = run_serial(c, mem);

  std::vector<BinaryTraceEvent> events = run.trace.events.to_vector();
  events.pop_back();
  const LargeCheckReport r = large_check_trace(c, Trace(events), {});
  EXPECT_FALSE(r.valid_observer);
  EXPECT_NE(r.detail.find("trace does not fit"), std::string::npos);

  events = run.trace.events.to_vector();
  for (auto& e : events)
    if (e.node == 0) e.seq = 1u << 20;
  EXPECT_FALSE(large_check_trace(c, Trace(events), {}).valid_observer);
}

TEST(LargeCheck, RejectsObservationsOfUnknownNodes) {
  // A read observing a node past the computation must make the trace
  // misfit — never a valid observer with the read silently seeing ⊥.
  Rng rng(445);
  proc::RandomCilkOptions copt;
  copt.target_ops = 300;
  const Computation c = proc::random_cilk(copt, rng);
  ScMemory mem;
  std::vector<BinaryTraceEvent> events =
      run_serial(c, mem).trace.events.to_vector();
  BinaryTraceEvent* read = nullptr;
  for (BinaryTraceEvent& e : events)
    if (read == nullptr && c.op(e.node).is_read()) read = &e;
  ASSERT_NE(read, nullptr);
  read->observed = static_cast<NodeId>(c.node_count() + 3);
  const Trace trace(std::move(events));
  std::string why;
  EXPECT_FALSE(trace_consistent_with(trace, c, &why));
  EXPECT_NE(why.find("observes unknown node"), std::string::npos) << why;
  const LargeCheckReport r = large_check_trace(c, trace, {});
  EXPECT_FALSE(r.valid_observer);
  EXPECT_EQ(r.detail, "trace does not fit the computation: " + why);
}

/// Every report field that does not depend on timing or on the
/// process's peak RSS.
void expect_same_report(const LargeCheckReport& got,
                        const LargeCheckReport& want) {
  EXPECT_EQ(got.valid_observer, want.valid_observer);
  EXPECT_EQ(got.checked, want.checked);
  EXPECT_EQ(got.satisfied, want.satisfied);
  EXPECT_EQ(got.detail, want.detail);
  EXPECT_EQ(got.oracle_kind, want.oracle_kind);
  EXPECT_EQ(got.oracle_memory_bytes, want.oracle_memory_bytes);
  EXPECT_EQ(got.simd, want.simd);
  EXPECT_EQ(got.shards, want.shards);
  EXPECT_EQ(got.groups_bytes, want.groups_bytes);
  EXPECT_EQ(got.scratch_peak_bytes, want.scratch_peak_bytes);
  EXPECT_EQ(got.aux_bytes, want.aux_bytes);
  EXPECT_EQ(got.bytes_per_node, want.bytes_per_node);
  EXPECT_EQ(got.pipelined, want.pipelined);
  EXPECT_EQ(got.numa, want.numa);
  ASSERT_EQ(got.locations.size(), want.locations.size());
  for (std::size_t i = 0; i < got.locations.size(); ++i) {
    EXPECT_EQ(got.locations[i].loc, want.locations[i].loc);
    EXPECT_EQ(got.locations[i].writers, want.locations[i].writers);
    EXPECT_EQ(got.locations[i].valid, want.locations[i].valid);
    EXPECT_EQ(got.locations[i].violated, want.locations[i].violated);
    EXPECT_EQ(got.locations[i].detail, want.locations[i].detail);
  }
}

/// `events` stably sorted by seq.
Trace seq_sorted(std::vector<BinaryTraceEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const BinaryTraceEvent& a, const BinaryTraceEvent& b) {
                     return a.seq < b.seq;
                   });
  return Trace(std::move(events));
}

TEST(LargeCheck, UnsortedTracesReportTheirStableSeqOrder) {
  // large_check_trace feeds the records as they lie; a rejected trace
  // out of seq order is checked again, by a fresh session, in stable seq
  // order, and its report is that order's.
  LargeCheckOptions lopt;
  lopt.models = kSuiteLC;  // the NN/NW/WN/WW sweeps take seconds here
  lopt.parallel = false;

  // A BACKER run (stale reads materialize locations) with two records
  // swapped past the first chunk: the rerun starts after a chunk was
  // fed, so progress starts over once.
  Rng rng(61);
  proc::RandomCilkOptions opt;
  opt.target_ops = detail::kChunkNodes + 16384;
  opt.nlocations = 4;
  const Computation c = proc::random_cilk(opt, rng);
  ASSERT_GT(c.node_count(), detail::kChunkNodes + 2);
  BackerMemory backer;
  const Trace run = run_execution(c, greedy_schedule(c, 4), backer).trace;
  std::vector<BinaryTraceEvent> swapped = run.events.to_vector();
  std::swap(swapped[detail::kChunkNodes + 1],
            swapped[detail::kChunkNodes + 2]);
  const LargeCheckReport want = large_check_trace(c, seq_sorted(swapped), lopt);
  ASSERT_TRUE(want.valid_observer) << want.detail;
  std::size_t calls = 0;
  LargeCheckOptions counted = lopt;
  counted.progress = [&calls](std::size_t, std::size_t) { ++calls; };
  expect_same_report(large_check_trace(c, Trace(swapped), counted), want);
  const std::size_t chunks =
      (c.node_count() + detail::kChunkNodes - 1) / detail::kChunkNodes;
  EXPECT_EQ(calls, chunks + 1);

  // The same swap plus an unknown observation in the first chunk: the
  // rejection is the one the stable seq order shows.
  swapped[7].observed = static_cast<NodeId>(c.node_count());
  std::string why;
  EXPECT_FALSE(trace_consistent_with(Trace(swapped), c, &why));
  const LargeCheckReport bad = large_check_trace(c, Trace(swapped), lopt);
  EXPECT_EQ(bad.detail, "trace does not fit the computation: " + why);
  expect_same_report(bad, large_check_trace(c, seq_sorted(swapped), lopt));

  // W(0) -> R(0) stored as [R (seq 2), W (seq 1)]: in array order the
  // read runs before the write it depends on, before any seq descent
  // shows; in seq order the trace is fine.
  ComputationBuilder b;
  b.read(0, {b.write(0)});
  const Computation two = std::move(b).build();
  const Trace flipped({{2, 1, 0, 1, 0}, {1, 0, 0, 0, kBottom}});
  lopt.models = kLargeCheckExt;
  const LargeCheckReport two_want =
      large_check_trace(two, seq_sorted(flipped.events.to_vector()), lopt);
  ASSERT_TRUE(two_want.valid_observer) << two_want.detail;
  expect_same_report(large_check_trace(two, flipped, lopt), two_want);
}

TEST(LargeCheck, SortedTraceRejectionsKeepTheirMessage) {
  // A sorted trace's array order is its stable seq order: its rejection
  // stands, message and all.
  ComputationBuilder b;
  b.read(0, {b.write(0)});
  const Computation two = std::move(b).build();
  const Trace backwards({{1, 0, 0, 1, 0}, {2, 1, 0, 0, kBottom}});
  const LargeCheckReport r = large_check_trace(two, backwards, {});
  EXPECT_FALSE(r.valid_observer);
  EXPECT_EQ(r.detail,
            "trace does not fit the computation: trace order flips dag edge "
            "0 -> 1 (node 1 ran first)");
}

TEST(LargeCheck, ReportsUsableDetailAndTimings) {
  // A stale read past an intervening write: w0 -> w1 -> r0 with r0
  // observing w0 breaks every model here (the quotient cycles for LC,
  // and u=w0 ≺ v=w1 ≺ w=r0 witnesses all four Q-dag predicates).
  ComputationBuilder b;
  const NodeId w0 = b.write(0);
  const NodeId w1 = b.write(0, {w0});
  const NodeId r0 = b.read(0, {w1});
  const Computation c = std::move(b).build();
  ObserverFunction phi(c.node_count());
  phi.set(0, w0, w0);
  phi.set(0, w1, w1);
  phi.set(0, r0, w0);

  LargeCheckOptions opt;
  opt.models = kLargeCheckAll;
  const LargeCheckReport r = large_check(c, phi, opt);
  EXPECT_TRUE(r.valid_observer);
  EXPECT_EQ(r.satisfied, 0u);
  EXPECT_FALSE(r.detail.empty());
  ASSERT_EQ(r.locations.size(), 1u);
  EXPECT_EQ(r.locations[0].writers, 2u);
  EXPECT_EQ(r.locations[0].violated, kLargeCheckAll);
  const std::string rendered = r.to_string();
  EXPECT_NE(rendered.find("oracle"), std::string::npos);
  EXPECT_NE(rendered.find("loc"), std::string::npos);
}

TEST(LargeCheck, StagesAddUpToTheTotal) {
  // On a sequential run the stages are disjoint stretches of the
  // engine's time, so together they never exceed total_millis: on a
  // serial trace, whose locations all stay witnessed (no kernel, no
  // writer CSR), on the same records stored in reverse, which are
  // rejected as they lie and checked again in seq order, and on a
  // BACKER trace, whose stale reads materialize locations.
  Rng rng(5);
  proc::RandomCilkOptions opt;
  opt.target_ops = 20000;
  opt.nlocations = 8;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory sc;
  BackerMemory backer;
  const Trace serial = run_serial(c, sc).trace;
  const Trace stale = run_execution(c, greedy_schedule(c, 4), backer).trace;
  std::vector<BinaryTraceEvent> events = serial.events.to_vector();
  std::reverse(events.begin(), events.end());
  const Trace reversed(std::move(events));
  LargeCheckOptions lopt;
  lopt.models = kLargeCheckExt;
  lopt.parallel = false;
  for (const Trace* t : {&serial, &reversed, &stale}) {
    const LargeCheckReport r = large_check_trace(c, *t, lopt);
    ASSERT_TRUE(r.valid_observer) << r.detail;
    EXPECT_EQ(r.groups_bytes == 0, t != &stale);
    EXPECT_EQ(r.kernel_millis == 0.0, t != &stale);
    // A nanosecond of slack for the rounding of the summed doubles.
    EXPECT_LE(r.ingest_millis + r.group_build_millis + r.kernel_millis +
                  r.report_millis,
              r.total_millis + 1e-6);
  }
}

TEST(LargeCheck, ObserverFromTracePinsReadsAndWrites) {
  const Computation c = workload::contended_counter(3);
  ScMemory mem;
  const ExecutionResult run = run_serial(c, mem);
  const ObserverFunction phi = observer_from_trace(c, run.trace);
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    if (o.is_write()) {
      EXPECT_EQ(phi.get(o.loc, u), u);
    }
  }
  for (const BinaryTraceEvent& e : run.trace.events) {
    const Op o = c.op(e.node);
    if (o.is_read()) {
      EXPECT_EQ(phi.get(o.loc, e.node), e.observed);
    }
  }
}

TEST(LargeCheckParallel, ShardedPipelineMatchesSequential) {
  // Many-location workloads sharded across the global pool must agree
  // with the sequential run of the same checks (and be TSan-clean).
  Rng rng(61);
  for (int trial = 0; trial < 4; ++trial) {
    const Computation c = workload::random_ops(
        gen::layered({6, 8, 8, 6}, 0.3, rng), 12, 0.45, 0.45, rng);
    WeakMemory mem(trial);
    const Schedule s = greedy_schedule(c, 4);
    const ObserverFunction phi = run_execution(c, s, mem).phi;

    LargeCheckOptions par;
    par.models = kLargeCheckAll;
    par.parallel = true;
    LargeCheckOptions seq = par;
    seq.parallel = false;
    const LargeCheckReport a = large_check(c, phi, par);
    const LargeCheckReport b = large_check(c, phi, seq);
    ASSERT_EQ(a.valid_observer, b.valid_observer);
    EXPECT_EQ(a.satisfied, b.satisfied);
    ASSERT_EQ(a.locations.size(), b.locations.size());
    for (std::size_t i = 0; i < a.locations.size(); ++i) {
      EXPECT_EQ(a.locations[i].loc, b.locations[i].loc);
      EXPECT_EQ(a.locations[i].violated, b.locations[i].violated);
      EXPECT_EQ(a.locations[i].valid, b.locations[i].valid);
    }
  }
}

TEST(LargeCheckParallel, ConcurrentReportsShareNothing) {
  // Two checks over the same computation running back to back on the
  // pool: the second must be unaffected by the first (regression against
  // shared mutable scratch).
  Rng rng(71);
  const Computation c = workload::stencil(8, 6);
  ScMemory mem;
  const ObserverFunction phi = run_serial(c, mem).phi;
  LargeCheckOptions opt;
  opt.models = kLargeCheckAll;
  const LargeCheckReport first = large_check(c, phi, opt);
  const LargeCheckReport second = large_check(c, phi, opt);
  EXPECT_EQ(first.satisfied, second.satisfied);
  EXPECT_EQ(first.valid_observer, second.valid_observer);
}

}  // namespace
}  // namespace ccmm
