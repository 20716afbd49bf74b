// The static-analysis subsystem: SP-bags race detection (differential
// against the pairwise engine on randomized series-parallel programs),
// the diagnostics framework, the model-anomaly classifier, and the
// race-engine dispatch in trace/race.hpp.
#include "analyze/passes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "analyze/anomaly.hpp"
#include "analyze/sp_bags.hpp"
#include "helpers.hpp"
#include "location_ids.hpp"
#include "proc/cilk.hpp"
#include "proc/random_program.hpp"
#include "trace/race.hpp"

namespace ccmm {
namespace {

using analyze::find_races_sp;
using analyze::has_race_sp;
using proc::CilkProgram;
using proc::RandomCilkOptions;
using proc::random_cilk;

// ---------------------------------------------------------------------
// SP structure plumbing.

TEST(SpStructure, CilkProgramsCarryTheirParse) {
  CilkProgram p;
  auto main = p.root();
  main.write(0);
  auto child = main.spawn();
  child.read(0);
  const Computation c = p.finish();
  ASSERT_NE(c.sp_structure(), nullptr);
  EXPECT_EQ(c.sp_structure()->node_count, c.node_count());
  EXPECT_GE(c.sp_structure()->strand_count(), 2u);
}

TEST(SpStructure, MutationDropsTheParse) {
  CilkProgram p;
  p.root().write(0);
  Computation c = p.finish();
  ASSERT_NE(c.sp_structure(), nullptr);
  c.set_ops({Op::read(0)});
  EXPECT_EQ(c.sp_structure(), nullptr);
}

TEST(SpStructure, DerivedComputationsDropTheParse) {
  CilkProgram p;
  auto main = p.root();
  main.write(0);
  auto child = main.spawn();
  child.write(0);
  const Computation c = p.finish();
  EXPECT_EQ(c.extend(Op::read(0), {}).sp_structure(), nullptr);
  EXPECT_EQ(c.augment(Op::nop()).sp_structure(), nullptr);
}

TEST(SpStructure, MismatchedStructureRejected) {
  CilkProgram p;
  p.root().write(0);
  const Computation c = p.finish();
  ComputationBuilder b;
  b.write(0);
  b.write(0);
  Computation other = std::move(b).build();
  EXPECT_THROW(other.set_sp_structure(c.sp_structure()), std::logic_error);
}

TEST(SpStructure, DetectorRequiresStructure) {
  ComputationBuilder b;
  b.write(0);
  b.write(0);
  const Computation c = std::move(b).build();
  EXPECT_THROW((void)find_races_sp(c), std::logic_error);
  EXPECT_THROW((void)has_race_sp(c), std::logic_error);
}

// ---------------------------------------------------------------------
// SP-bags vs pairwise: adversarial edge cases.

TEST(SpBags, EmptyProgram) {
  CilkProgram p;
  const Computation c = p.finish();
  EXPECT_EQ(c.node_count(), 0u);
  ASSERT_NE(c.sp_structure(), nullptr);
  EXPECT_TRUE(find_races_sp(c).empty());
  EXPECT_FALSE(has_race_sp(c));
}

TEST(SpBags, SingleNode) {
  CilkProgram p;
  p.root().write(0);
  const Computation c = p.finish();
  EXPECT_TRUE(find_races_sp(c).empty());
  EXPECT_FALSE(has_race_sp(c));
}

TEST(SpBags, AllReadsNeverRace) {
  CilkProgram p;
  auto main = p.root();
  for (int i = 0; i < 6; ++i) {
    auto child = main.spawn();
    child.read(0).read(1).read(0);
  }
  main.sync();
  const Computation c = p.finish();
  EXPECT_TRUE(find_races_sp(c).empty());
  EXPECT_FALSE(has_race_sp(c));
  EXPECT_TRUE(find_races_pairwise(c).empty());
}

TEST(SpBags, WriteOnlyFanOutRacesCompletely) {
  // k parallel writers to one location: all C(k,2) pairs race.
  constexpr std::size_t k = 7;
  CilkProgram p;
  auto main = p.root();
  for (std::size_t i = 0; i < k; ++i) {
    auto child = main.spawn();
    child.write(0);
  }
  main.sync();
  const Computation c = p.finish();
  const auto sp = find_races_sp(c);
  EXPECT_EQ(sp.size(), k * (k - 1) / 2);
  for (const Race& r : sp) EXPECT_EQ(r.kind, RaceKind::kWriteWrite);
  EXPECT_EQ(sp, find_races_pairwise(c));
  EXPECT_TRUE(has_race_sp(c));
}

TEST(SpBags, SyncSerializesAndAdoptIsSerial) {
  // Increments serialized by sync: race-free.
  CilkProgram p;
  auto main = p.root();
  main.write(0);
  auto a = main.spawn();
  a.read(0).write(0);
  main.sync();
  auto b = main.spawn();
  b.read(0).write(0);
  main.sync();
  const Computation c = p.finish();
  EXPECT_TRUE(find_races_sp(c).empty());
  EXPECT_FALSE(has_race_sp(c));

  // A plain call is serial with the caller on both sides.
  CilkProgram q;
  auto qm = q.root();
  qm.write(0);
  auto callee = qm.spawn();
  callee.read(0).write(0);
  qm.adopt(callee);
  qm.read(0);
  const Computation d = q.finish();
  EXPECT_TRUE(find_races_sp(d).empty());
}

TEST(SpBags, OutstandingSpawnRacesWithAdoptedCall) {
  // A spawned child stays parallel across a later plain call: the
  // callee's accesses race with the child's, but not with the caller's.
  CilkProgram p;
  auto main = p.root();
  main.write(0);
  auto forked = main.spawn();
  forked.write(1);
  auto callee = main.spawn();
  callee.write(1);
  main.adopt(callee);
  main.read(1);  // serial after the callee, parallel with forked
  main.sync();
  const Computation c = p.finish();
  const auto sp = find_races_sp(c);
  EXPECT_EQ(sp, find_races_pairwise(c));
  // forked's W(1) races with the callee's W(1) and with the caller's
  // post-call R(1); the callee/caller pair is serial.
  EXPECT_EQ(sp.size(), 2u);
  EXPECT_TRUE(has_race_sp(c));
}

TEST(SpBags, AdoptAfterCallerMovedRejected) {
  CilkProgram p;
  auto main = p.root();
  auto callee = main.spawn();
  callee.write(0);
  main.write(1);  // the caller may not run while a plain call is out
  EXPECT_THROW(main.adopt(callee), std::logic_error);
}

TEST(SpBags, ClosedStrandsRejectUse) {
  CilkProgram p;
  auto main = p.root();
  auto child = main.spawn();
  child.write(0);
  main.sync();
  EXPECT_THROW(child.write(1), std::logic_error);
  EXPECT_THROW((void)child.spawn(), std::logic_error);
}

TEST(SpBags, DeepSpawnSpineDoesNotOverflow) {
  // 2000-deep spawn chain, each strand writing its own location:
  // race-free; exercises the iterative replay.
  CilkProgram p;
  std::vector<CilkProgram::Strand> chain{p.root()};
  for (Location i = 0; i < 2000; ++i) {
    chain.back().write(i);
    chain.push_back(chain.back().spawn());
  }
  chain.back().write(2000);
  const Computation c = p.finish();
  EXPECT_TRUE(find_races_sp(c).empty());
  EXPECT_FALSE(has_race_sp(c));
}

// ---------------------------------------------------------------------
// Differential property test: the two engines agree exactly.

TEST(SpBagsDifferential, AgreesWithPairwiseOnRandomPrograms) {
  Rng rng(2026);
  std::size_t total_races = 0;
  std::size_t racy = 0;
  for (int trial = 0; trial < 1200; ++trial) {
    RandomCilkOptions options;
    options.target_ops = 1 + rng.below(80);
    options.nlocations = 1 + rng.below(8);
    options.spawn_prob = 0.05 + rng.uniform() * 0.30;
    options.call_prob = rng.uniform() * 0.15;
    options.sync_prob = rng.uniform() * 0.25;
    options.write_prob = 0.2 + rng.uniform() * 0.6;
    const Computation c = random_cilk(options, rng);
    ASSERT_NE(c.sp_structure(), nullptr);
    const auto sp = find_races_sp(c);
    const auto pw = find_races_pairwise(c);
    ASSERT_EQ(sp, pw) << "trial " << trial << "\n" << c.to_string();
    ASSERT_EQ(has_race_sp(c), !pw.empty()) << "trial " << trial;
    total_races += sp.size();
    racy += sp.empty() ? 0 : 1;
  }
  // The family must actually exercise both racy and race-free regimes.
  EXPECT_GT(total_races, 1000u);
  EXPECT_GT(racy, 100u);
  EXPECT_LT(racy, 1200u);
}

TEST(SpBagsDifferential, DispatchUsesSpEngine) {
  Rng rng(7);
  RandomCilkOptions options;
  options.target_ops = 40;
  const Computation c = random_cilk(options, rng);
  // find_races / has_race route through SP-bags when the parse is
  // attached and must agree with the pairwise engine either way.
  EXPECT_EQ(find_races(c), find_races_pairwise(c));
  EXPECT_EQ(has_race(c), !find_races_pairwise(c).empty());
  EXPECT_EQ(is_race_free(c), find_races_pairwise(c).empty());
}

// ---------------------------------------------------------------------
// Witness shrinking.

TEST(Anomaly, WitnessIsDownwardClosedAndKeepsTheRace) {
  Rng rng(11);
  RandomCilkOptions options;
  options.target_ops = 50;
  options.nlocations = 2;
  options.write_prob = 0.7;
  for (int trial = 0; trial < 50; ++trial) {
    const Computation c = random_cilk(options, rng);
    for (const Race& r : find_races_sp(c)) {
      NodeId wa = kBottom;
      NodeId wb = kBottom;
      const Computation w = analyze::race_witness(c, r.a, r.b, &wa, &wb);
      ASSERT_LT(wa, w.node_count());
      ASSERT_LT(wb, w.node_count());
      EXPECT_EQ(w.op(wa), c.op(r.a));
      EXPECT_EQ(w.op(wb), c.op(r.b));
      // Still incomparable: the witness preserves the race.
      EXPECT_FALSE(w.precedes(wa, wb));
      EXPECT_FALSE(w.precedes(wb, wa));
      EXPECT_LE(w.node_count(), c.node_count());
    }
  }
}

// ---------------------------------------------------------------------
// Model-anomaly classification.

TEST(Anomaly, UnobservedWriteWriteRaceLeavesModelsAgreeing) {
  ComputationBuilder b;
  b.write(0);
  b.write(0);
  const Computation c = std::move(b).build();
  const auto races = find_races_pairwise(c);
  ASSERT_EQ(races.size(), 1u);
  const auto split = analyze::classify_race(c, races[0]);
  ASSERT_TRUE(split.has_value());
  EXPECT_TRUE(split->agree());
  EXPECT_FALSE(split->truncated);
}

TEST(Anomaly, Figure2RaceSplitsTheHierarchy) {
  // Figure 2's computation is racy, and its anomalies are exactly what
  // separate the dag models: some race's witness must split them.
  const Computation c = test::figure2_pair().c;
  bool split_found = false;
  for (const Race& r : find_races_pairwise(c)) {
    const auto split = analyze::classify_race(c, r);
    if (split.has_value() && !split->agree()) split_found = true;
  }
  EXPECT_TRUE(split_found);
}

TEST(Anomaly, CapsReturnNullopt) {
  ComputationBuilder b;
  b.write(0);
  b.write(0);
  const Computation c = std::move(b).build();
  const auto races = find_races_pairwise(c);
  ASSERT_FALSE(races.empty());
  analyze::AnomalyOptions tight;
  tight.witness_node_cap = 1;
  EXPECT_FALSE(analyze::classify_race(c, races[0], tight).has_value());
}

TEST(Anomaly, ExtraModelsSearchAtTheAnomalyBudget) {
  // A read/write race, classified with the SC spec renamed SC2 as an
  // extra model. SC2 must search at the anomaly's budget, not at the
  // unbounded one it was compiled with: wherever SC's search gives up,
  // SC2's does too, so the two always share a class. A second extra,
  // LC-shaped but named "SC", keeps its own entry next to the core SC.
  ComputationBuilder b;
  const NodeId w = b.write(0);
  b.read(0, {w});
  b.write(0);
  const Computation c = std::move(b).build();
  std::optional<Race> read_write;
  for (const Race& r : find_races_pairwise(c))
    if (c.op(r.a).is_read() || c.op(r.b).is_read()) read_write = r;
  ASSERT_TRUE(read_write.has_value());

  ModelSpec sc2 = builtin_model_specs()[0];
  sc2.name = "SC2";
  ModelSpec lc_named_sc = builtin_model_specs()[1];
  lc_named_sc.name = "SC";
  analyze::AnomalyOptions opt;
  opt.extra_models = {compile_model(sc2), compile_model(lc_named_sc)};
  const auto class_of = [](const analyze::ModelSplit& split,
                           const std::string& m) {
    for (std::size_t k = 0; k < split.classes.size(); ++k)
      if (std::count(split.classes[k].begin(), split.classes[k].end(), m))
        return k;
    return SIZE_MAX;
  };
  for (const std::size_t budget : {std::size_t{1}, std::size_t{200'000}}) {
    opt.sc_budget = budget;
    const auto split = analyze::classify_race(c, *read_write, opt);
    ASSERT_TRUE(split.has_value());
    EXPECT_EQ(class_of(*split, "SC"), class_of(*split, "SC2"))
        << "budget " << budget << ": " << split->to_string();
    EXPECT_EQ(split->truncated, budget == 1) << split->to_string();
    std::size_t named_sc = 0;
    for (const auto& cls : split->classes)
      named_sc += static_cast<std::size_t>(std::count(cls.begin(), cls.end(),
                                                      std::string("SC")));
    EXPECT_EQ(named_sc, 2u) << split->to_string();
  }
}

TEST(Anomaly, ExtraModelsBeyondOneRegistryAreAllClassified) {
  // 70 extras, more than fit next to the six core models in one
  // 64-entry registry: SC renamed SC2 and WW renamed WW2, alternating,
  // so both sit on each side of the boundary. Each copy must land in
  // its original's class on a read/write race that splits SC from WW.
  ComputationBuilder b;
  const NodeId w = b.write(0);
  b.read(0, {w});
  b.write(0);
  const Computation c = std::move(b).build();
  std::optional<Race> read_write;
  for (const Race& r : find_races_pairwise(c))
    if (c.op(r.a).is_read() || c.op(r.b).is_read()) read_write = r;
  ASSERT_TRUE(read_write.has_value());

  ModelSpec sc2 = builtin_model_specs()[0];
  sc2.name = "SC2";
  ModelSpec ww2 = builtin_model_specs()[5];
  ASSERT_EQ(ww2.name, "WW");
  ww2.name = "WW2";
  const auto sc2_model = compile_model(sc2);
  const auto ww2_model = compile_model(ww2);
  analyze::AnomalyOptions opt;
  for (std::size_t i = 0; i < 70; ++i)
    opt.extra_models.push_back(i % 2 == 0 ? sc2_model : ww2_model);
  const auto split = analyze::classify_race(c, *read_write, opt);
  ASSERT_TRUE(split.has_value());
  EXPECT_FALSE(split->truncated);
  ASSERT_EQ(split->classes.size(), split->accepted.size());
  std::size_t names = 0;
  for (const auto& cls : split->classes) {
    names += cls.size();
    const auto has = [&](const char* m) {
      return std::count(cls.begin(), cls.end(), std::string(m));
    };
    EXPECT_EQ(has("SC2"), has("SC") != 0 ? 35 : 0) << split->to_string();
    EXPECT_EQ(has("WW2"), has("WW") != 0 ? 35 : 0) << split->to_string();
    EXPECT_FALSE(has("SC") != 0 && has("WW") != 0) << split->to_string();
  }
  EXPECT_EQ(names, 76u);
}

// ---------------------------------------------------------------------
// The pass driver and diagnostics.

TEST(AnalyzeDriver, RaceFreeProgramIsClean) {
  CilkProgram p;
  auto main = p.root();
  main.write(0);
  auto child = main.spawn();
  child.read(0).write(1);
  main.sync();
  main.read(1);
  const Computation c = p.finish();
  const auto diags = analyze::analyze_computation(c);
  const auto n = analyze::count_severities(diags);
  EXPECT_EQ(n.errors, 0u);
  EXPECT_EQ(n.warnings, 0u);
}

TEST(AnalyzeDriver, ObservableRaceIsErrorUnobservableIsWarning) {
  // Parallel write/write with a subsequent read: observable → error.
  CilkProgram p;
  auto main = p.root();
  auto a = main.spawn();
  a.write(0);
  auto b = main.spawn();
  b.write(0);
  main.sync();
  main.read(0);
  const auto diags = analyze::analyze_computation(p.finish());
  EXPECT_GE(analyze::count_severities(diags).errors, 1u);

  // Parallel write/write nobody reads: every model agrees → warning.
  CilkProgram q;
  auto qm = q.root();
  auto qa = qm.spawn();
  qa.write(0);
  auto qb = qm.spawn();
  qb.write(0);
  qm.sync();
  const auto qdiags = analyze::analyze_computation(q.finish());
  const auto qn = analyze::count_severities(qdiags);
  EXPECT_EQ(qn.errors, 0u);
  EXPECT_EQ(qn.warnings, 1u);
}

/// The memory-lint diagnostics as (pass, node, location), in order.
using LintRow = std::tuple<std::string, NodeId, Location>;

std::vector<LintRow> memory_lints(const std::vector<analyze::Diagnostic>& ds) {
  std::vector<LintRow> out;
  for (const auto& d : ds)
    if (d.pass == "dead-write" || d.pass == "uninitialized-read")
      out.emplace_back(d.pass, d.a, *d.loc);
  return out;
}

/// The same rows from the definitions: a read of a location nobody
/// writes, a write of a location nobody reads, node by node.
std::vector<LintRow> reference_memory_lints(const Computation& c) {
  std::vector<LintRow> out;
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    if (o.is_read() && c.writers(o.loc).empty())
      out.emplace_back("uninitialized-read", u, o.loc);
    if (o.is_write() && c.readers(o.loc).empty())
      out.emplace_back("dead-write", u, o.loc);
  }
  return out;
}

TEST(AnalyzeDriver, MemoryLintsFire) {
  ComputationBuilder b;
  const NodeId w = b.write(3);
  b.read(5, {w});
  const auto diags = analyze::analyze_computation(std::move(b).build());
  bool dead_write = false;
  bool uninit_read = false;
  for (const auto& d : diags) {
    if (d.pass == "dead-write") dead_write = true;
    if (d.pass == "uninitialized-read") uninit_read = true;
  }
  EXPECT_TRUE(dead_write);
  EXPECT_TRUE(uninit_read);

  // Locations whose ids collide in the location index's direct-mapped
  // cache, 0xFFFFFFFF among them, on small and large programs.
  analyze::AnalysisOptions options;
  options.classify_anomalies = false;
  Rng rng(0xDEAD);
  for (const std::size_t ops : {20, 200, 3000}) {
    proc::RandomCilkOptions opt;
    opt.target_ops = ops;
    opt.nlocations = 9;
    const Computation c = test::on_colliding_ids(proc::random_cilk(opt, rng));
    const std::vector<LintRow> want = reference_memory_lints(c);
    EXPECT_FALSE(want.empty()) << ops << " ops";
    EXPECT_EQ(memory_lints(analyze::analyze_computation(c, options)), want)
        << ops << " ops";
  }
}

TEST(AnalyzeDriver, RaceCapSummarizes) {
  CilkProgram p;
  auto main = p.root();
  for (int i = 0; i < 8; ++i) {
    auto child = main.spawn();
    child.write(0);
  }
  main.sync();
  analyze::AnalysisOptions options;
  options.max_race_diagnostics = 3;
  options.classify_anomalies = false;
  const auto diags = analyze::analyze_computation(p.finish(), options);
  std::size_t race_diags = 0;
  bool summary = false;
  for (const auto& d : diags) {
    if (d.pass == "oracle-race" && d.severity != analyze::Severity::kInfo)
      ++race_diags;
    if (d.message.find("suppressed") != std::string::npos) summary = true;
  }
  EXPECT_EQ(race_diags, 3u);
  EXPECT_TRUE(summary);
}

TEST(AnalyzeDriver, ReportRendersAllSeverities) {
  CilkProgram p;
  auto main = p.root();
  auto a = main.spawn();
  a.write(0);
  auto b = main.spawn();
  b.write(0);
  main.sync();
  main.read(0);
  main.read(9);
  const auto diags = analyze::analyze_computation(p.finish());
  const std::string report = analyze::render_report(diags);
  EXPECT_NE(report.find("error"), std::string::npos);
  EXPECT_NE(report.find("uninitialized-read"), std::string::npos);
  EXPECT_NE(report.find("behaviour classes"), std::string::npos);
}

TEST(AnalyzeDriver, JsonReportIsWellFormed) {
  CilkProgram p;
  auto main = p.root();
  auto a = main.spawn();
  a.write(0);
  auto b = main.spawn();
  b.write(0);
  main.sync();
  main.read(0);
  const auto diags = analyze::analyze_computation(p.finish());
  ASSERT_FALSE(diags.empty());
  const std::string json = analyze::render_json(diags);
  // Structural smoke: one object per diagnostic, the severity/pass keys
  // present, quotes balanced. (ccmm_lint --json is consumed by CI, so
  // the shape is part of the contract.)
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"diagnostics\":["), std::string::npos);
  EXPECT_NE(json.find("\"severity\""), std::string::npos);
  EXPECT_NE(json.find("\"pass\""), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(json.begin(), json.end(), '{')),
            static_cast<std::size_t>(
                std::count(json.begin(), json.end(), '}')));
  EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
}

TEST(AnalyzeDriver, StatsReportTheScan) {
  // Both lints run one scan: the stats name the oracle it used and the
  // exact race count, whatever the oracle.
  CilkProgram p;
  auto main = p.root();
  auto a = main.spawn();
  a.write(0);
  main.write(0);
  main.sync();
  const Computation c = p.finish();
  analyze::AnalyzeStats stats;
  analyze::AnalysisOptions options;
  options.classify_anomalies = false;
  (void)analyze::analyze_computation(c, options, &stats);
  EXPECT_EQ(stats.scan.oracle_kind, "sp-order");  // parse present
  EXPECT_EQ(stats.races, find_races_pairwise(c).size());
  EXPECT_GT(stats.races, 0u);
  EXPECT_NE(stats.to_string().find("sp-order"), std::string::npos);

  options.scan.oracle.choice = OracleChoice::kChain;
  (void)analyze::analyze_computation(c, options, &stats);
  EXPECT_EQ(stats.scan.oracle_kind, "chain");
  EXPECT_EQ(stats.races, find_races_pairwise(c).size());
}

}  // namespace
}  // namespace ccmm
