// The streaming lint pipeline (trace/lint_pipeline.hpp) against the
// definitions it replaced:
//  * the trace dead-write lint, computed from the arrival order, names
//    exactly the writes no column of the trace's completion holds
//    (tests/reference_trace.hpp) — on serial, BACKER, weak and perturbed
//    traces, shuffled event arrays included;
//  * analyze_trace, which checks through the session's stream, equals
//    the dense route: the completion Φ, then large_check (spec_check
//    when spec models ride along), field for field, on location ids that
//    collide in the location index's cache too;
//  * past the race-count clamp the trace lint still reports the k
//    smallest races, the static lint's.
#include "trace/lint_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "exec/backer.hpp"
#include "exec/lc_memory.hpp"
#include "exec/sc_memory.hpp"
#include "exec/schedule.hpp"
#include "exec/sim_machine.hpp"
#include "exec/weak_memory.hpp"
#include "location_ids.hpp"
#include "proc/random_program.hpp"
#include "reference_trace.hpp"
#include "trace/race.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ccmm {
namespace {

using analyze::Diagnostic;
using analyze::TraceLintOptions;
using analyze::TraceLintResult;

/// Serial SC, 4-processor greedy BACKER, 3-processor WeakMemory and
/// 2-processor work-stealing LC-oracle runs of `c`.
std::vector<Trace> runs_of(const Computation& c, Rng& rng) {
  std::vector<Trace> out;
  ScMemory sc;
  out.push_back(run_serial(c, sc).trace);
  BackerMemory backer;
  out.push_back(run_execution(c, greedy_schedule(c, 4), backer).trace);
  WeakMemory weak(rng.next());
  out.push_back(run_execution(c, greedy_schedule(c, 3), weak).trace);
  LcOracleMemory lc(rng.next());
  out.push_back(
      run_execution(c, work_stealing_schedule(c, 2, rng), lc).trace);
  return out;
}

/// `trace` with about a third of its reads recording ⊥ or any write,
/// another location's included.
Trace perturbed(const Computation& c, const Trace& trace, Rng& rng) {
  std::vector<NodeId> writes;
  for (NodeId u = 0; u < c.node_count(); ++u)
    if (c.op(u).is_write()) writes.push_back(u);
  std::vector<BinaryTraceEvent> events = trace.events.to_vector();
  for (BinaryTraceEvent& e : events) {
    if (!c.op(e.node).is_read() || !rng.chance(0.3)) continue;
    e.observed = writes.empty() || rng.chance(0.25)
                     ? kBottom
                     : writes[rng.below(writes.size())];
  }
  return Trace(std::move(events));
}

Computation random_program(std::size_t ops, std::size_t locations, Rng& rng) {
  proc::RandomCilkOptions opt;
  opt.target_ops = ops;
  opt.nlocations = locations;
  return proc::random_cilk(opt, rng);
}

std::vector<NodeId> dead_writes(const TraceLintResult& r) {
  std::vector<NodeId> out;
  for (const Diagnostic& d : r.diagnostics)
    if (d.pass == "trace-dead-write") out.push_back(d.a);
  return out;
}

TEST(LintPipeline, DeadWritesMatchTheCompletionColumns) {
  Rng rng(4242);
  TraceLintOptions opt;
  opt.models = kSuiteLC;
  opt.analysis.classify_anomalies = false;
  opt.certify = false;
  std::size_t checked = 0;
  std::size_t dead = 0;
  std::size_t cross_location_reads = 0;
  for (int round = 0; round < 60; ++round) {
    const Computation c = random_program(8 + rng.below(200), 1 + rng.below(9),
                                         rng);
    std::vector<Trace> traces = runs_of(c, rng);
    traces.push_back(perturbed(c, traces[1], rng));  // BACKER, perturbed
    for (Trace& trace : traces) {
      for (const BinaryTraceEvent& e : trace.events)
        if (c.op(e.node).is_read() && e.observed != kBottom &&
            c.op(e.observed).loc != c.op(e.node).loc)
          ++cross_location_reads;
      const std::vector<NodeId> want = reference_dead_writes(c, trace);
      const TraceLintResult r = analyze::analyze_trace(c, trace, opt);
      ASSERT_TRUE(r.trace_ok) << "round " << round;
      EXPECT_EQ(dead_writes(r), want) << "round " << round;
      // The lint reads the trace in seq order, whatever the array order.
      std::vector<BinaryTraceEvent> events = trace.events.to_vector();
      std::shuffle(events.begin(), events.end(), rng);
      trace = Trace(std::move(events));
      EXPECT_EQ(dead_writes(analyze::analyze_trace(c, trace, opt)), want)
          << "round " << round << ", shuffled";
      EXPECT_EQ(reference_dead_writes(c, trace), want) << "round " << round;
      ++checked;
      dead += want.size();
    }
  }
  EXPECT_EQ(checked, 300u);
  EXPECT_GT(dead, 100u);
  EXPECT_GT(cross_location_reads, 0u);
}

/// analyze_trace as it was when it checked the trace's dense
/// completion: observer_from_trace, then large_check, or spec_check when
/// spec models ride along. spec_check takes no order hint, so its
/// scoped searches run from scratch; on these small instances they
/// decide what the trace order decides.
TraceLintResult dense_route(const Computation& c, const Trace& trace,
                            const TraceLintOptions& options) {
  TraceLintResult result;
  const auto add = [&](analyze::Severity severity, const char* pass,
                       std::string message) {
    Diagnostic d;
    d.severity = severity;
    d.pass = pass;
    d.message = std::move(message);
    result.diagnostics.push_back(std::move(d));
  };
  std::string why;
  if (!trace_consistent_with(trace, c, &why)) {
    add(analyze::Severity::kError, "trace",
        "trace does not fit the computation: " + why);
    return result;
  }
  result.trace_ok = true;
  const ObserverFunction phi = observer_from_trace(c, trace);
  LargeCheckOptions lopt;
  lopt.models = options.models;
  if (options.spec_models.empty()) {
    result.report = large_check(c, phi, lopt);
  } else {
    SpecCheckOptions sopt;
    sopt.large = lopt;
    sopt.search_budget = 5'000'000;
    SpecCheckReport sr = spec_check(c, phi, options.spec_models, sopt);
    result.report = std::move(sr.base);
    result.spec_verdicts = std::move(sr.models);
  }
  const LargeCheckReport& report = *result.report;
  if (!report.valid_observer) {
    add(analyze::Severity::kError, "observer",
        "trace observer violates Definition 2: " + report.detail);
  } else {
    for (std::uint32_t bit = 1; bit <= kLargeCheckExt; bit <<= 1)
      if ((report.checked & options.models & bit) != 0 &&
          (report.satisfied & bit) == 0)
        add(analyze::Severity::kWarning, "model",
            std::string("execution is not ") + suite_bit_name(bit) + ": " +
                report.violation_detail(bit));
    for (const SpecModelVerdict& v : result.spec_verdicts) {
      if (v.decided && !v.member)
        add(analyze::Severity::kWarning, "model",
            "execution is not " + v.name + ": " + v.detail);
      else if (!v.decided)
        add(analyze::Severity::kInfo, "model",
            v.name + " undecided: " + v.detail);
    }
  }

  analyze::AnalysisOptions aopt = options.analysis;
  aopt.lint = false;
  for (const auto& m : options.spec_models)
    aopt.anomaly.extra_models.push_back(m);
  for (Diagnostic& d : analyze::analyze_computation(c, aopt, &result.stats))
    result.diagnostics.push_back(std::move(d));

  for (const BinaryTraceEvent& e : trace.events) {
    const Op o = c.op(e.node);
    if (!o.is_read() || e.observed != kBottom || c.writers(o.loc).empty())
      continue;
    add(analyze::Severity::kInfo, "trace-uninit-read",
        "node " + std::to_string(e.node) + " read ⊥ from location " +
            std::to_string(o.loc) +
            " in this execution although the location has writers");
    result.diagnostics.back().a = e.node;
    result.diagnostics.back().loc = o.loc;
  }
  for (const NodeId w : reference_dead_writes(c, trace)) {
    add(analyze::Severity::kInfo, "trace-dead-write",
        "write " + std::to_string(w) + " to location " +
            std::to_string(c.op(w).loc) +
            " was observed by no other node in this execution");
    result.diagnostics.back().a = w;
    result.diagnostics.back().loc = c.op(w).loc;
  }

  if (options.certify && result.stats.races == 0 &&
      !result.stats.scan.truncated) {
    analyze::CertifyOptions copt = options.certificate;
    copt.scan = options.analysis.scan;
    result.certificate = analyze::make_drf_certificate(c, copt, &why);
  }
  return result;
}

void expect_same_result(const TraceLintResult& got,
                        const TraceLintResult& want, const std::string& ctx) {
  ASSERT_EQ(got.trace_ok, want.trace_ok) << ctx;
  ASSERT_EQ(got.report.has_value(), want.report.has_value()) << ctx;
  if (got.report.has_value()) {
    const LargeCheckReport& g = *got.report;
    const LargeCheckReport& w = *want.report;
    EXPECT_EQ(g.valid_observer, w.valid_observer) << ctx;
    EXPECT_EQ(g.checked, w.checked) << ctx;
    EXPECT_EQ(g.satisfied, w.satisfied) << ctx;
    EXPECT_EQ(g.detail, w.detail) << ctx;
    ASSERT_EQ(g.locations.size(), w.locations.size()) << ctx;
    for (std::size_t i = 0; i < g.locations.size(); ++i) {
      EXPECT_EQ(g.locations[i].loc, w.locations[i].loc) << ctx;
      EXPECT_EQ(g.locations[i].valid, w.locations[i].valid) << ctx;
      EXPECT_EQ(g.locations[i].violated, w.locations[i].violated) << ctx;
      EXPECT_EQ(g.locations[i].writers, w.locations[i].writers) << ctx;
      EXPECT_EQ(g.locations[i].detail, w.locations[i].detail) << ctx;
    }
  }
  ASSERT_EQ(got.spec_verdicts.size(), want.spec_verdicts.size()) << ctx;
  for (std::size_t i = 0; i < got.spec_verdicts.size(); ++i) {
    const SpecModelVerdict& g = got.spec_verdicts[i];
    const SpecModelVerdict& w = want.spec_verdicts[i];
    EXPECT_EQ(g.name, w.name) << ctx;
    EXPECT_EQ(g.decided, w.decided) << ctx << ' ' << g.name;
    EXPECT_EQ(g.member, w.member) << ctx << ' ' << g.name;
    EXPECT_EQ(g.detail, w.detail) << ctx << ' ' << g.name;
  }
  EXPECT_EQ(got.stats.races, want.stats.races) << ctx;
  ASSERT_EQ(got.diagnostics.size(), want.diagnostics.size()) << ctx;
  for (std::size_t i = 0; i < got.diagnostics.size(); ++i) {
    const Diagnostic& g = got.diagnostics[i];
    const Diagnostic& w = want.diagnostics[i];
    EXPECT_EQ(g.pass, w.pass) << ctx << " #" << i;
    EXPECT_EQ(g.severity, w.severity) << ctx << " #" << i;
    EXPECT_EQ(g.message, w.message) << ctx << " #" << i;
    EXPECT_EQ(g.a, w.a) << ctx << " #" << i;
    EXPECT_EQ(g.b, w.b) << ctx << " #" << i;
    EXPECT_EQ(g.loc, w.loc) << ctx << " #" << i;
  }
  ASSERT_EQ(got.certificate.has_value(), want.certificate.has_value()) << ctx;
  if (got.certificate.has_value()) {
    EXPECT_EQ(got.certificate->to_json(), want.certificate->to_json()) << ctx;
  }
}

TEST(LintPipeline, MatchesTheDenseObserverRoute) {
  std::vector<std::shared_ptr<const CompiledModel>> pack;
  for (const ModelSpec& s : bundled_spec_pack())
    pack.push_back(compile_model(s));
  Rng rng(77);
  std::size_t violated_backer = 0;
  std::size_t searched_non_members = 0;
  // Rounds 12 on rename the locations onto ids that collide in the
  // location index's direct-mapped cache, 0xFFFFFFFF among them, with a
  // read-only and a write-only location (tests/location_ids.hpp).
  for (int round = 0; round < 18; ++round) {
    const Computation c =
        round < 12 ? random_program(40 + rng.below(120), 4, rng)
                   : test::on_colliding_ids(
                         random_program(40 + rng.below(120), 9, rng));
    const std::vector<Trace> traces = runs_of(c, rng);
    for (std::size_t t = 0; t < traces.size(); ++t) {
      for (const bool with_pack : {false, true}) {
        TraceLintOptions opt;
        opt.models = kLargeCheckExt;
        if (with_pack) opt.spec_models = pack;
        const std::string ctx = "round " + std::to_string(round) + ", run " +
                                std::to_string(t) +
                                (with_pack ? ", pack" : "");
        const TraceLintResult got = analyze::analyze_trace(c, traces[t], opt);
        expect_same_result(got, dense_route(c, traces[t], opt), ctx);
        if (t == 1 && got.report.has_value() &&
            got.report->satisfied != got.report->checked)
          ++violated_backer;
        // PC2 failing its scopes after LC held: the order search ran.
        for (const SpecModelVerdict& v : got.spec_verdicts)
          if (v.decided && !v.member && v.detail.starts_with("scope"))
            ++searched_non_members;
      }
    }
  }
  EXPECT_GT(violated_backer, 0u);
  EXPECT_GT(searched_non_members, 0u);
}

/// The (a, b, loc) of every race diagnostic, in report order.
std::vector<Race> race_diagnostics(const std::vector<Diagnostic>& diags) {
  std::vector<Race> out;
  for (const Diagnostic& d : diags)
    if (d.pass == "oracle-race" && d.b != kBottom)
      out.push_back({d.a, d.b, *d.loc, RaceKind::kReadWrite});
  return out;
}

TEST(LintPipeline, AboveTheCountCapReportsTheSmallestRaces) {
  // A scan.max_races below the race count clamps the count, not the
  // choice of races: the trace lint reports the k smallest, exactly as
  // the static lint does, on one thread or many.
  Rng rng(2026);
  const Computation c = random_program(400, 6, rng);
  std::vector<Race> expected = find_races_pairwise(c);
  ScMemory sc;
  const Trace trace = run_serial(c, sc).trace;
  constexpr std::size_t kCap = 40;
  constexpr std::size_t kShown = 8;
  ASSERT_GT(expected.size(), 4 * kCap);
  expected.resize(kShown);
  for (Race& r : expected) r.kind = RaceKind::kReadWrite;

  ThreadPool pool(4);
  for (const bool parallel : {false, true}) {
    TraceLintOptions opt;
    opt.models = kSuiteLC;
    opt.certify = false;
    opt.analysis.max_race_diagnostics = kShown;
    opt.analysis.scan.max_races = kCap;
    opt.analysis.scan.pool = &pool;
    opt.analysis.scan.parallel = parallel;
    const TraceLintResult r = analyze::analyze_trace(c, trace, opt);
    ASSERT_TRUE(r.trace_ok);
    const std::string ctx = parallel ? "pool" : "sequential";
    EXPECT_EQ(r.stats.races, kCap) << ctx;
    EXPECT_TRUE(r.stats.scan.truncated) << ctx;
    EXPECT_EQ(race_diagnostics(r.diagnostics), expected) << ctx;

    analyze::AnalysisOptions sopt;
    sopt.max_race_diagnostics = kShown;
    sopt.scan.pool = &pool;
    sopt.scan.parallel = parallel;
    const std::vector<Diagnostic> stat = analyze::analyze_computation(c, sopt);
    std::vector<const Diagnostic*> got_races;
    std::vector<const Diagnostic*> want_races;
    for (const Diagnostic& d : r.diagnostics)
      if (d.pass == "oracle-race" && d.b != kBottom) got_races.push_back(&d);
    for (const Diagnostic& d : stat)
      if (d.pass == "oracle-race" && d.b != kBottom) want_races.push_back(&d);
    ASSERT_EQ(got_races.size(), want_races.size()) << ctx;
    for (std::size_t i = 0; i < got_races.size(); ++i) {
      EXPECT_EQ(got_races[i]->message, want_races[i]->message) << ctx;
      EXPECT_EQ(got_races[i]->severity, want_races[i]->severity) << ctx;
      EXPECT_EQ(got_races[i]->witness_a, want_races[i]->witness_a) << ctx;
      EXPECT_EQ(got_races[i]->witness_b, want_races[i]->witness_b) << ctx;
    }
  }
}

}  // namespace
}  // namespace ccmm
