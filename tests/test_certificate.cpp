// DRF ⇒ agreement certificates (analyze/certificate.hpp): construction
// on race-free computations, refusal on racy ones, tamper detection,
// JSON round-trips, and the streaming lint pipeline integration
// (trace/lint_pipeline.hpp).
#include <gtest/gtest.h>

#include <string>

#include "analyze/certificate.hpp"
#include "exec/sc_memory.hpp"
#include "exec/sim_machine.hpp"
#include "exec/workload.hpp"
#include "proc/cilk.hpp"
#include "trace/lint_pipeline.hpp"
#include "trace/race.hpp"

namespace ccmm {
namespace {

using analyze::CertifyOptions;
using analyze::DrfCertificate;

/// Fork/join program where every strand owns its locations: parallel
/// but race-free, so the paper's agreement theorem applies.
Computation disjoint_strands(std::size_t strands, std::size_t ops) {
  proc::CilkProgram p;
  auto main = p.root();
  std::vector<proc::CilkProgram::Strand> children;
  for (std::size_t s = 0; s < strands; ++s) {
    auto child = main.spawn();
    for (std::size_t k = 0; k < ops; ++k) {
      const Location l = static_cast<Location>(s);
      child.write(l);
      child.read(l);
    }
    children.push_back(child);
  }
  main.sync();
  for (std::size_t s = 0; s < strands; ++s)
    main.read(static_cast<Location>(s));
  return p.finish();
}

TEST(Certificate, RaceFreeComputationCertifies) {
  const Computation c = workload::reduction(8);
  ASSERT_TRUE(find_races(c).empty());
  std::string why;
  const auto cert = analyze::make_drf_certificate(c, {}, &why);
  ASSERT_TRUE(cert.has_value()) << why;
  EXPECT_EQ(cert->nodes, c.node_count());
  EXPECT_EQ(cert->models, analyze::kDrfModelMask);
  EXPECT_EQ(cert->fingerprint, analyze::computation_fingerprint(c));
  EXPECT_GT(cert->sampled_prefixes, 0u);
  EXPECT_GT(cert->checked_observers, 0u);

  const analyze::CertificateCheck check =
      analyze::verify_drf_certificate(c, *cert);
  EXPECT_TRUE(check.ok) << check.reason;
}

TEST(Certificate, ParallelDisjointStrandsCertify) {
  const Computation c = disjoint_strands(4, 3);
  std::string why;
  const auto cert = analyze::make_drf_certificate(c, {}, &why);
  ASSERT_TRUE(cert.has_value()) << why;
  EXPECT_TRUE(analyze::verify_drf_certificate(c, *cert).ok);
}

TEST(Certificate, RacyComputationRefused) {
  const Computation c = workload::contended_counter(3);
  ASSERT_FALSE(find_races(c).empty());
  std::string why;
  const auto cert = analyze::make_drf_certificate(c, {}, &why);
  EXPECT_FALSE(cert.has_value());
  EXPECT_NE(why.find("race"), std::string::npos) << why;
}

TEST(Certificate, FingerprintTamperDetected) {
  const Computation c = workload::reduction(4);
  auto cert = analyze::make_drf_certificate(c);
  ASSERT_TRUE(cert.has_value());
  DrfCertificate bad = *cert;
  bad.fingerprint ^= 1;
  const analyze::CertificateCheck check =
      analyze::verify_drf_certificate(c, bad);
  EXPECT_FALSE(check.ok);
  EXPECT_FALSE(check.reason.empty());
}

TEST(Certificate, WrongComputationRejected) {
  const Computation a = workload::reduction(4);
  const Computation b = workload::reduction(8);
  const auto cert = analyze::make_drf_certificate(a);
  ASSERT_TRUE(cert.has_value());
  EXPECT_FALSE(analyze::verify_drf_certificate(b, *cert).ok);
}

TEST(Certificate, RacyComputationFailsForeignCertificate) {
  // A certificate minted for a race-free computation must not validate
  // a racy computation even if structure counts happen to be close.
  const Computation free_c = workload::reduction(4);
  const auto cert = analyze::make_drf_certificate(free_c);
  ASSERT_TRUE(cert.has_value());
  const Computation racy = workload::contended_counter(2);
  EXPECT_FALSE(analyze::verify_drf_certificate(racy, *cert).ok);
}

TEST(Certificate, JsonRoundTrip) {
  const Computation c = disjoint_strands(3, 2);
  const auto cert = analyze::make_drf_certificate(c);
  ASSERT_TRUE(cert.has_value());
  const std::string json = cert->to_json();
  std::string why;
  const auto parsed = analyze::parse_drf_certificate(json, &why);
  ASSERT_TRUE(parsed.has_value()) << why;
  EXPECT_EQ(parsed->version, cert->version);
  EXPECT_EQ(parsed->fingerprint, cert->fingerprint);
  EXPECT_EQ(parsed->nodes, cert->nodes);
  EXPECT_EQ(parsed->edges, cert->edges);
  EXPECT_EQ(parsed->locations, cert->locations);
  EXPECT_EQ(parsed->writes, cert->writes);
  EXPECT_EQ(parsed->reads, cert->reads);
  EXPECT_EQ(parsed->oracle_kind, cert->oracle_kind);
  EXPECT_EQ(parsed->models, cert->models);
  EXPECT_EQ(parsed->seed, cert->seed);
  EXPECT_EQ(parsed->sampled_prefixes, cert->sampled_prefixes);
  EXPECT_EQ(parsed->checked_observers, cert->checked_observers);
  // And the parsed copy still verifies.
  EXPECT_TRUE(analyze::verify_drf_certificate(c, *parsed).ok);
}

TEST(Certificate, MalformedJsonRejected) {
  std::string why;
  EXPECT_FALSE(analyze::parse_drf_certificate("", &why).has_value());
  EXPECT_FALSE(analyze::parse_drf_certificate("{}", &why).has_value());
  EXPECT_FALSE(
      analyze::parse_drf_certificate("not json at all", &why).has_value());
}

TEST(Certificate, SeedReplayIsDeterministic) {
  const Computation c = disjoint_strands(4, 2);
  CertifyOptions opt;
  opt.seed = 1234;
  const auto a = analyze::make_drf_certificate(c, opt);
  const auto b = analyze::make_drf_certificate(c, opt);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->sampled_prefixes, b->sampled_prefixes);
  EXPECT_EQ(a->checked_observers, b->checked_observers);
  EXPECT_EQ(a->to_json(), b->to_json());
}

// ---------------------------------------------------------------------
// Streaming pipeline integration.

TEST(LintPipeline, RaceFreeTraceGetsCertificate) {
  const Computation c = disjoint_strands(3, 2);
  ScMemory mem;
  const ExecutionResult run = run_serial(c, mem);
  const analyze::TraceLintResult r = analyze::analyze_trace(c, run.trace);
  EXPECT_TRUE(r.trace_ok);
  ASSERT_TRUE(r.report.has_value());
  EXPECT_TRUE(r.report->valid_observer);
  EXPECT_EQ(r.stats.races, 0u);
  ASSERT_TRUE(r.certificate.has_value());
  EXPECT_TRUE(analyze::verify_drf_certificate(c, *r.certificate).ok);
  EXPECT_EQ(analyze::count_severities(r.diagnostics).errors, 0u);
  EXPECT_NE(r.to_string().find("race-free"), std::string::npos);
}

TEST(LintPipeline, RacyTraceGetsDiagnosticsNoCertificate) {
  const Computation c = workload::contended_counter(3);
  ScMemory mem;
  const ExecutionResult run = run_serial(c, mem);
  const analyze::TraceLintResult r = analyze::analyze_trace(c, run.trace);
  EXPECT_TRUE(r.trace_ok);
  EXPECT_FALSE(r.certificate.has_value());
  EXPECT_GT(r.stats.races, 0u);
  EXPECT_EQ(r.stats.races, find_races_pairwise(c).size());
  EXPECT_GT(analyze::count_severities(r.diagnostics).errors, 0u);
}

TEST(LintPipeline, CertifyCanBeDisabled) {
  const Computation c = workload::reduction(4);
  ScMemory mem;
  const ExecutionResult run = run_serial(c, mem);
  analyze::TraceLintOptions opt;
  opt.certify = false;
  const analyze::TraceLintResult r = analyze::analyze_trace(c, run.trace, opt);
  EXPECT_TRUE(r.trace_ok);
  EXPECT_FALSE(r.certificate.has_value());
}

TEST(LintPipeline, InconsistentTraceReported) {
  const Computation c = workload::reduction(4);
  ScMemory mem;
  std::vector<BinaryTraceEvent> events =
      run_serial(c, mem).trace.events.to_vector();
  ASSERT_FALSE(events.empty());
  events.pop_back();  // now one event short
  const analyze::TraceLintResult r =
      analyze::analyze_trace(c, Trace(std::move(events)));
  EXPECT_FALSE(r.trace_ok);
  EXPECT_FALSE(r.report.has_value());
  EXPECT_EQ(analyze::count_severities(r.diagnostics).errors, 1u);
  EXPECT_EQ(r.diagnostics[0].pass, "trace");
}

TEST(LintPipeline, ObservationOfUnknownNodeRejected) {
  // A read observing a node the computation does not have: the trace
  // does not fit, exactly as an online session rejects the record.
  const Computation c = workload::contended_counter(3);
  ScMemory mem;
  std::vector<BinaryTraceEvent> events =
      run_serial(c, mem).trace.events.to_vector();
  BinaryTraceEvent* read = nullptr;
  for (BinaryTraceEvent& e : events)
    if (read == nullptr && c.op(e.node).is_read()) read = &e;
  ASSERT_NE(read, nullptr);
  read->observed = static_cast<NodeId>(c.node_count() + 3);
  const analyze::TraceLintResult r =
      analyze::analyze_trace(c, Trace(std::move(events)));
  EXPECT_FALSE(r.trace_ok);
  EXPECT_FALSE(r.report.has_value());
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_NE(r.diagnostics[0].message.find("observes unknown node"),
            std::string::npos)
      << r.diagnostics[0].message;
}

TEST(LintPipeline, ModelDiagnosticsCiteALocationViolatingTheirModel) {
  // Location 0 is W -> R with the read recording ⊥: it violates LC, NN
  // and NW only. Location 1 is W -> W -> R with a stale read: it
  // violates all five. The WN and WW diagnostics must cite location 1,
  // not location 0's LC witness.
  ComputationBuilder b;
  const NodeId w0 = b.write(0);
  b.read(0, {w0});
  const NodeId w1 = b.write(1);
  const NodeId w2 = b.write(1, {w1});
  b.read(1, {w2});
  const Computation c = std::move(b).build();
  std::vector<BinaryTraceEvent> events;
  for (NodeId u = 0; u < c.node_count(); ++u)
    events.push_back({u, u, 0, u, kBottom});
  events[4].observed = w1;
  const Trace trace(std::move(events));

  analyze::TraceLintOptions opt;
  opt.certify = false;
  const analyze::TraceLintResult r = analyze::analyze_trace(c, trace, opt);
  ASSERT_TRUE(r.trace_ok);
  ASSERT_TRUE(r.report.has_value());
  ASSERT_EQ(r.report->locations.size(), 2u);
  EXPECT_EQ(r.report->locations[0].violated, kSuiteLC | kSuiteNN | kSuiteNW);
  EXPECT_EQ(r.report->locations[1].violated, kLargeCheckAll);
  std::vector<std::string> model_diags;
  for (const analyze::Diagnostic& d : r.diagnostics)
    if (d.pass == "model") model_diags.push_back(d.message);
  const std::string& at0 = r.report->locations[0].detail;
  const std::string& at1 = r.report->locations[1].detail;
  ASSERT_NE(at0, at1);
  EXPECT_EQ(model_diags,
            (std::vector<std::string>{"execution is not LC: " + at0,
                                      "execution is not NN: " + at0,
                                      "execution is not NW: " + at0,
                                      "execution is not WN: " + at1,
                                      "execution is not WW: " + at1}));
}

TEST(LintPipeline, TraceSharpenedLintsFire) {
  // x is written only on one branch; the other branch's read observes ⊥
  // in the serial execution even though the location has a writer. The
  // unread write to y is dead in the trace.
  proc::CilkProgram p;
  auto main = p.root();
  auto a = main.spawn();
  a.read(0);   // runs before main's write in the serial order
  main.write(0);
  main.sync();
  main.write(1);  // nobody reads location 1
  const Computation c = p.finish();
  ScMemory mem;
  const ExecutionResult run = run_serial(c, mem);
  const analyze::TraceLintResult r = analyze::analyze_trace(c, run.trace);
  EXPECT_TRUE(r.trace_ok);
  bool saw_uninit = false;
  bool saw_dead = false;
  for (const analyze::Diagnostic& d : r.diagnostics) {
    if (d.pass == "trace-uninit-read") saw_uninit = true;
    if (d.pass == "trace-dead-write") saw_dead = true;
  }
  EXPECT_TRUE(saw_dead);
  // The serial elision runs the spawned child before the continuation,
  // so the child's read really observes ⊥ in this trace.
  EXPECT_TRUE(saw_uninit);
}

}  // namespace
}  // namespace ccmm
