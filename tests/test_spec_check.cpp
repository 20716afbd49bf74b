// The streaming spec bridge (trace/spec_check.hpp), pinned:
//  * every decided verdict equals CompiledModel::check_prepared, and
//    its mask part equals the paper's definitions
//    (tests/reference_models.hpp) — over execution-produced observers
//    (serial, weak, LC-oracle) and random corruptions of them;
//  * the trace entry point: a scope-consistent serial execution's own
//    order decides the scoped/global searches via the hint (no
//    backtracking budget needed), and a trace that does not fit the
//    computation rejects every model with a diagnosis;
//  * every spec streams: a w-constrained cube axiom normalizes away and
//    its spec answers like the empty spec;
//  * undecidedness is honest: a 1-state search budget yields
//    decided = false, never a guessed membership.
#include "trace/spec_check.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/prepared.hpp"
#include "exec/lc_memory.hpp"
#include "exec/sc_memory.hpp"
#include "exec/sim_machine.hpp"
#include "exec/weak_memory.hpp"
#include "exec/workload.hpp"
#include "reference_models.hpp"
#include "util/rng.hpp"

namespace ccmm {
namespace {

std::vector<std::shared_ptr<const CompiledModel>> pack_models() {
  std::vector<std::shared_ptr<const CompiledModel>> out;
  for (const ModelSpec& s : bundled_spec_pack()) out.push_back(compile_model(s));
  return out;
}

std::vector<Computation> small_workloads() {
  std::vector<Computation> out;
  out.push_back(workload::reduction(4));
  out.push_back(workload::stencil(4, 3));
  out.push_back(workload::contended_counter(5));
  out.push_back(workload::fork_join_array(2, 3, 4));
  Rng rng(91);
  for (int i = 0; i < 5; ++i)
    out.push_back(workload::random_ops(gen::random_dag(13, 0.25, rng), 4, 0.4,
                                       0.4, rng));
  return out;
}

/// Every decided streaming verdict must equal the prepared checker, and
/// its mask part the definitions; on valid observers with an unbounded
/// budget, everything must be decided.
void expect_parity(const Computation& c, const ObserverFunction& phi,
                   const std::vector<std::shared_ptr<const CompiledModel>>&
                       models) {
  const SpecCheckReport r = spec_check(c, phi, models);
  ASSERT_EQ(r.models.size(), models.size());
  CheckContext ctx;
  const PreparedPair p = ctx.prepare(c, phi);
  for (std::size_t i = 0; i < models.size(); ++i) {
    const SpecModelVerdict& v = r.models[i];
    EXPECT_EQ(v.name, models[i]->name());
    EXPECT_TRUE(v.decided) << v.name << ": " << v.detail;
    const CompiledVerdict want = models[i]->check_prepared(p);
    EXPECT_FALSE(want.exhausted);
    EXPECT_EQ(v.member, want.member) << v.name << ": " << v.detail;
    const std::uint32_t mask = models[i]->streaming_plan().mask;
    EXPECT_EQ(r.base.valid_observer && (r.base.satisfied & mask) == mask,
              test::kernel_bits_by_definition(c, phi, mask))
        << v.name;
  }
  EXPECT_EQ(r.all_members(),
            r.base.valid_observer &&
                std::all_of(r.models.begin(), r.models.end(),
                            [](const SpecModelVerdict& v) {
                              return v.decided && v.member;
                            }));
}

TEST(SpecCheck, MatchesPreparedOnExecutions) {
  const auto models = pack_models();
  Rng rng(5);
  for (const Computation& c : small_workloads()) {
    {
      ScMemory mem;
      expect_parity(c, run_serial(c, mem).phi, models);
    }
    {
      WeakMemory mem(7);
      const Schedule s = greedy_schedule(c, 3);
      expect_parity(c, run_execution(c, s, mem).phi, models);
    }
    {
      LcOracleMemory mem(3);
      const Schedule s = work_stealing_schedule(c, 2, rng);
      expect_parity(c, run_execution(c, s, mem).phi, models);
    }
  }
}

TEST(SpecCheck, MatchesPreparedOnPerturbedObservers) {
  const auto models = pack_models();
  Rng rng(13);
  for (const Computation& c : small_workloads()) {
    WeakMemory mem(2);
    const Schedule s = greedy_schedule(c, 2);
    const ObserverFunction base = run_execution(c, s, mem).phi;
    const std::vector<Location> locs = c.written_locations();
    if (locs.empty()) continue;
    for (int trial = 0; trial < 12; ++trial) {
      ObserverFunction phi = base;
      for (int k = 0; k < 3; ++k) {
        const Location l = locs[rng.below(locs.size())];
        const auto u = static_cast<NodeId>(rng.below(c.node_count()));
        const std::vector<NodeId> ws = c.writers(l);
        phi.set(l, u, rng.chance(0.25) ? kBottom : ws[rng.below(ws.size())]);
      }
      // Invalid observers short-circuit: decided non-members everywhere.
      const SpecCheckReport r = spec_check(c, phi, models);
      if (!r.base.valid_observer) {
        for (const SpecModelVerdict& v : r.models) {
          EXPECT_TRUE(v.decided);
          EXPECT_FALSE(v.member);
        }
        continue;
      }
      expect_parity(c, phi, models);
    }
  }
}

TEST(SpecCheck, SharedPassCoversTheUnionOfPlans) {
  // One large_check run serves all requested models: with TSO in the
  // set the shared report must carry its freshness and corner bits.
  const auto models = pack_models();
  const Computation c = workload::reduction(4);
  ScMemory mem;
  const SpecCheckReport r = spec_check(c, run_serial(c, mem).phi, models);
  EXPECT_TRUE(r.base.valid_observer);
  EXPECT_NE(r.base.checked & kSuiteFresh, 0u);
  EXPECT_NE(r.base.checked & kSuiteLC, 0u);
  EXPECT_NE(r.base.checked & kSuiteWN, 0u);
  EXPECT_NE(r.base.checked & kSuiteNW, 0u);
  EXPECT_TRUE(r.all_members());  // a serial execution is in everything
  EXPECT_NE(r.to_string().find("PC2"), std::string::npos);
}

TEST(SpecCheck, TraceEntryDecidesSerialExecutionsViaHint) {
  const auto models = pack_models();
  for (const Computation& c : small_workloads()) {
    ScMemory mem;
    const ExecutionResult run = run_serial(c, mem);
    // Even with a zero search budget the trace's own execution order
    // explains every scope of a serial execution — the hint path must
    // decide without backtracking.
    SpecCheckOptions opt;
    opt.search_budget = 0;
    const SpecCheckReport r = spec_check_trace(c, run.trace, models, opt);
    for (const SpecModelVerdict& v : r.models) {
      EXPECT_TRUE(v.decided) << v.name << ": " << v.detail;
      EXPECT_TRUE(v.member) << v.name << ": " << v.detail;
    }
  }
}

TEST(SpecCheck, TraceEntryAgreesWithObserverEntry) {
  const auto models = pack_models();
  Rng rng(29);
  for (const Computation& c : small_workloads()) {
    WeakMemory mem(4);
    const Schedule s = greedy_schedule(c, 3);
    const ExecutionResult run = run_execution(c, s, mem);
    const SpecCheckReport via_trace = spec_check_trace(c, run.trace, models);
    const SpecCheckReport via_phi =
        spec_check(c, observer_from_trace(c, run.trace), models);
    ASSERT_EQ(via_trace.models.size(), via_phi.models.size());
    for (std::size_t i = 0; i < via_trace.models.size(); ++i) {
      EXPECT_EQ(via_trace.models[i].decided, via_phi.models[i].decided);
      EXPECT_EQ(via_trace.models[i].member, via_phi.models[i].member)
          << via_trace.models[i].name;
    }
  }
}

TEST(SpecCheck, MisfitTraceRejectsEveryModelWithDiagnosis) {
  // A model with no kernel bits is rejected too (the w-constrained cube
  // axiom normalizes away): a trace that does not fit the computation
  // is in no model.
  auto models = pack_models();
  ModelSpec cube;
  cube.name = "CUBE";
  cube.axioms = {CubeSpec{false, false, true}};
  models.push_back(compile_model(cube));
  const Computation c = workload::contended_counter(5);
  ScMemory mem;
  std::vector<BinaryTraceEvent> events =
      run_serial(c, mem).trace.events.to_vector();
  ASSERT_FALSE(events.empty());
  events.pop_back();  // one event per node no longer holds
  const SpecCheckReport r =
      spec_check_trace(c, Trace(std::move(events)), models);
  ASSERT_EQ(r.models.size(), models.size());
  for (const SpecModelVerdict& v : r.models) {
    EXPECT_TRUE(v.decided);
    EXPECT_FALSE(v.member);
    EXPECT_NE(v.detail.find("trace does not fit"), std::string::npos)
        << v.detail;
  }
}

TEST(SpecCheck, ObservationOfUnknownNodeRejectsEveryModel) {
  const auto models = pack_models();
  const Computation c = workload::contended_counter(5);
  ScMemory mem;
  std::vector<BinaryTraceEvent> events =
      run_serial(c, mem).trace.events.to_vector();
  BinaryTraceEvent* read = nullptr;
  for (BinaryTraceEvent& e : events)
    if (read == nullptr && c.op(e.node).is_read()) read = &e;
  ASSERT_NE(read, nullptr);
  read->observed = static_cast<NodeId>(c.node_count());
  const SpecCheckReport r =
      spec_check_trace(c, Trace(std::move(events)), models);
  EXPECT_NE(r.base.detail.find("observes unknown node"), std::string::npos)
      << r.base.detail;
  ASSERT_EQ(r.models.size(), models.size());
  for (const SpecModelVerdict& v : r.models) {
    EXPECT_TRUE(v.decided);
    EXPECT_FALSE(v.member);
  }
}

TEST(SpecCheck, WConstrainedSpecIsDecidedLikeTheEmptySpec) {
  // A w-constrained cube axiom is vacuous for valid observers, so
  // normalize() drops it: the spec streams, with no kernel bits, and
  // answers like the spec with no axioms at all.
  ModelSpec s;
  s.name = "CUBE";
  s.axioms = {CubeSpec{false, false, true}};
  const auto cube = compile_model(s);
  ModelSpec e;
  e.name = "EMPTY";
  const auto empty = compile_model(e);
  EXPECT_EQ(cube->spec().digest(), empty->spec().digest());
  EXPECT_EQ(cube->streaming_plan().mask, 0u);

  const Computation c = workload::reduction(3);
  ScMemory mem;
  const ObserverFunction serial = run_serial(c, mem).phi;
  ObserverFunction stale = serial;  // every read sees ⊥: valid, not LC
  ObserverFunction invalid = serial;
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    if (o.is_read()) stale.set(o.loc, u, kBottom);
    if (o.is_write()) invalid.set(o.loc, u, kBottom);
  }
  CheckContext ctx;
  for (const ObserverFunction* phi :
       std::vector<const ObserverFunction*>{&serial, &stale, &invalid}) {
    const SpecCheckReport r = spec_check(c, *phi, {cube, empty});
    ASSERT_EQ(r.models.size(), 2u);
    const bool valid = is_valid_observer(c, *phi);
    for (const SpecModelVerdict& v : r.models) {
      EXPECT_TRUE(v.decided) << v.name << ": " << v.detail;
      EXPECT_EQ(v.member, valid) << v.name << ": " << v.detail;
    }
    EXPECT_EQ(cube->check_prepared(ctx.prepare(c, *phi)).member, valid);
  }
}

TEST(SpecCheck, BudgetExhaustionIsUndecidedWithoutAHint) {
  // Without the trace hint a scoped/global search must run; a 1-state
  // budget cannot decide a 14-node member and must say so.
  Rng rng(37);
  const Computation c =
      workload::random_ops(gen::random_dag(14, 0.3, rng), 2, 0.5, 0.4, rng);
  ScMemory mem;
  const ObserverFunction phi = run_serial(c, mem).phi;
  const auto sc = compile_model(builtin_model_specs()[0]);

  SpecCheckOptions tight;
  tight.search_budget = 1;
  const SpecCheckReport r = spec_check(c, phi, {sc}, tight);
  ASSERT_EQ(r.models.size(), 1u);
  EXPECT_FALSE(r.models[0].decided) << r.models[0].detail;

  // Same pair, default budget: decided member.
  const SpecCheckReport full = spec_check(c, phi, {sc});
  EXPECT_TRUE(full.models[0].decided);
  EXPECT_TRUE(full.models[0].member);
}

}  // namespace
}  // namespace ccmm
