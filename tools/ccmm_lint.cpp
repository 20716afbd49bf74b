// ccmm_lint — the static-analysis front door: load a computation (ccmm
// text format or its binary image, see src/io/text.hpp) or a built-in
// demo program, run every analysis pass (race detection, model-anomaly
// classification, memory lints) and print the diagnostics. With a
// recorded trace the full streaming pipeline runs instead:
// trace-sharpened lints, model verdicts for the trace's observer, and —
// when the scan proves race-freedom — the DRF ⇒ agreement certificate.
//
//   $ ./ccmm_lint instance.txt            # lint an instance file
//   $ ./ccmm_lint --demo                  # lint a racy Cilk program
//                                         # (SP-order race scan)
//   $ ./ccmm_lint instance.txt --no-anomaly --max-races 8
//   $ ./ccmm_lint instance.txt --trace t.txt --json
//   $ ./ccmm_lint instance.txt --certify cert.json
//   $ ./ccmm_lint instance.txt --verify-cert cert.json
//
// Exit code: 0 when no error-severity diagnostics (and, with
// --certify / --verify-cert, the certificate step succeeded), 1 when
// error diagnostics were produced or a certificate step failed, 2 on
// usage or input errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/certificate.hpp"
#include "io/text.hpp"
#include "models/compile.hpp"
#include "models/spec.hpp"
#include "proc/cilk.hpp"
#include "trace/lint_pipeline.hpp"
#include "trace/trace_binary.hpp"
#include "util/str.hpp"

using namespace ccmm;

namespace {

Computation demo_program() {
  // Two spawned children increment the same counter without a sync
  // between them — the canonical determinacy race — plus a read of a
  // location nobody writes and a write nobody reads for the lints.
  proc::CilkProgram p;
  auto main = p.root();
  main.write(0);
  auto a = main.spawn();
  a.read(0).write(0);
  auto b = main.spawn();
  b.read(0).write(0);
  main.sync();
  main.read(0);
  main.read(7);   // uninitialized read
  main.write(9);  // dead write
  return p.finish();
}

int usage() {
  std::fprintf(
      stderr,
      "usage: ccmm_lint <instance.txt|.cimg> [options]\n"
      "       ccmm_lint --demo [options]\n"
      "options:\n"
      "  --demo          lint a built-in racy Cilk program\n"
      "  --no-anomaly    skip model-anomaly classification of races\n"
      "  --no-lint       skip the memory lints (dead writes, ⊥ reads)\n"
      "  --max-races N   cap reported race diagnostics (default 64)\n"
      "  --trace FILE    run the streaming pipeline on a recorded trace\n"
      "                  (text or binary .tbin, auto-detected)\n"
      "                  (trace-sharpened lints, model verdicts, DRF\n"
      "                  certificate when race-free)\n"
      "  --spec FILE     compile a model-spec pack (models/spec.hpp\n"
      "                  surface syntax); its models are decided on the\n"
      "                  streaming path with --trace and join the race\n"
      "                  classifier's model split\n"
      "  --model NAME    restrict to one compiled model (bundled registry\n"
      "                  or a --spec pack; repeatable)\n"
      "  --json          machine-readable JSON on stdout\n"
      "  --certify FILE  prove race-freedom and write the DRF certificate\n"
      "  --verify-cert FILE  re-check a DRF certificate against the input\n");
  return 2;
}

std::optional<std::string> read_file(const char* path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int verify_certificate(const Computation& c, const char* cert_path,
                       bool json) {
  const auto text = read_file(cert_path);
  if (!text.has_value()) {
    std::fprintf(stderr, "cannot open %s\n", cert_path);
    return 2;
  }
  std::string why;
  const auto cert = analyze::parse_drf_certificate(*text, &why);
  if (!cert.has_value()) {
    std::fprintf(stderr, "malformed certificate: %s\n", why.c_str());
    return 2;
  }
  const analyze::CertificateCheck check =
      analyze::verify_drf_certificate(c, *cert);
  if (json) {
    std::printf("{\"certificate_ok\":%s,\"reason\":\"%s\"}\n",
                check.ok ? "true" : "false",
                analyze::json_escape(check.reason).c_str());
  } else if (check.ok) {
    std::printf("certificate OK: %s\n", cert->to_string().c_str());
  } else {
    std::printf("certificate REJECTED: %s\n", check.reason.c_str());
  }
  return check.ok ? 0 : 1;
}

/// Write the certificate (if any) to `path`; reports what happened.
int emit_certificate(const std::optional<analyze::DrfCertificate>& cert,
                     const std::string& why, const char* path, bool json) {
  if (!cert.has_value()) {
    if (!json)
      std::printf("no certificate written: %s\n", why.c_str());
    return 1;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 2;
  }
  out << cert->to_json() << '\n';
  if (!json) std::printf("certificate written to %s\n", path);
  return 0;
}

int lint_trace(const Computation& c, const char* trace_path,
               const analyze::AnalysisOptions& options,
               std::vector<std::shared_ptr<const CompiledModel>> spec_models,
               bool json, const char* certify_path) {
  // Auto-detects text vs binary by the magic; binary traces are
  // mmapped and decoded without materializing any text.
  Trace trace;
  try {
    trace = load_trace(trace_path, c);
  } catch (const TraceReadError& e) {
    std::fprintf(stderr, "%s: %s\n", trace_path, e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  analyze::TraceLintOptions topt;
  topt.analysis = options;
  topt.spec_models = std::move(spec_models);
  const analyze::TraceLintResult r = analyze::analyze_trace(c, trace, topt);
  if (json) {
    std::string out = format("{\"trace_ok\":%s", r.trace_ok ? "true" : "false");
    if (r.report.has_value()) {
      out += format(",\"valid_observer\":%s,\"checked\":%u,\"satisfied\":%u",
                    r.report->valid_observer ? "true" : "false",
                    r.report->checked, r.report->satisfied);
    }
    if (!r.spec_verdicts.empty()) {
      out += ",\"spec_models\":[";
      for (std::size_t i = 0; i < r.spec_verdicts.size(); ++i) {
        const SpecModelVerdict& v = r.spec_verdicts[i];
        if (i > 0) out += ",";
        out += format("{\"name\":\"%s\",\"decided\":%s,\"member\":%s}",
                      analyze::json_escape(v.name).c_str(),
                      v.decided ? "true" : "false",
                      v.member ? "true" : "false");
      }
      out += "]";
    }
    out += format(",\"races\":%zu", r.stats.races);
    out += ",\"analysis\":" + analyze::render_json(r.diagnostics);
    out += ",\"certificate\":";
    out += r.certificate.has_value() ? r.certificate->to_json() : "null";
    out += "}";
    std::printf("%s\n", out.c_str());
  } else {
    std::printf("%s", r.to_string().c_str());
  }
  int rc = analyze::count_severities(r.diagnostics).errors > 0 ? 1 : 0;
  if (certify_path != nullptr) {
    const int crc = emit_certificate(
        r.certificate, "computation is not race-free", certify_path, json);
    if (rc == 0) rc = crc;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  analyze::AnalysisOptions options;
  bool demo = false;
  bool json = false;
  const char* path = nullptr;
  const char* trace_path = nullptr;
  const char* certify_path = nullptr;
  const char* verify_path = nullptr;
  std::vector<std::string> spec_paths;
  std::vector<std::string> model_names;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--no-anomaly") == 0) {
      options.classify_anomalies = false;
    } else if (std::strcmp(argv[i], "--no-lint") == 0) {
      options.lint = false;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--spec") == 0 && i + 1 < argc) {
      spec_paths.push_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc) {
      model_names.push_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--certify") == 0 && i + 1 < argc) {
      certify_path = argv[++i];
    } else if (std::strcmp(argv[i], "--verify-cert") == 0 && i + 1 < argc) {
      verify_path = argv[++i];
    } else if (std::strcmp(argv[i], "--max-races") == 0 && i + 1 < argc) {
      options.max_race_diagnostics =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      path = argv[i];
    }
  }
  if (demo == (path != nullptr)) return usage();

  // Compile the requested spec models: every --spec pack's models, or
  // the --model selections out of the bundled registry + packs. Parse
  // errors carry 1-based line numbers.
  ModelRegistry registry = ModelRegistry::bundled();
  std::vector<std::shared_ptr<const CompiledModel>> spec_models;
  try {
    spec_models = load_spec_models(registry, spec_paths, model_names);
  } catch (const SpecLoadError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  // On the static path (no trace) the compiled models still join the
  // race classifier's split; on the trace path analyze_trace threads
  // them itself.
  if (trace_path == nullptr)
    for (const auto& m : spec_models)
      options.anomaly.extra_models.push_back(m);

  Computation c;
  if (demo) {
    c = demo_program();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 2;
    }
    try {
      c = io::read_pair(in).c;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  if (verify_path != nullptr) return verify_certificate(c, verify_path, json);
  if (trace_path != nullptr)
    return lint_trace(c, trace_path, options, std::move(spec_models), json,
                      certify_path);

  analyze::AnalyzeStats stats;
  const auto diags = analyze::analyze_computation(c, options, &stats);
  if (json) {
    std::string out = format("{\"races\":%zu", stats.races);
    out += ",\"analysis\":" + analyze::render_json(diags);
    if (certify_path != nullptr) {
      std::string why;
      const auto cert = analyze::make_drf_certificate(c, {}, &why);
      out += ",\"certificate\":";
      out += cert.has_value() ? cert->to_json() : "null";
      out += "}";
      std::printf("%s\n", out.c_str());
      const int rc = analyze::count_severities(diags).errors > 0 ? 1 : 0;
      const int crc = emit_certificate(cert, why, certify_path, json);
      return rc != 0 ? rc : crc;
    }
    out += "}";
    std::printf("%s\n", out.c_str());
    return analyze::count_severities(diags).errors > 0 ? 1 : 0;
  }

  std::printf("%s", c.to_string().c_str());
  std::printf("%s\n", stats.to_string().c_str());
  std::printf("%s", analyze::render_report(diags).c_str());
  int rc = analyze::count_severities(diags).errors > 0 ? 1 : 0;
  if (certify_path != nullptr) {
    std::string why;
    const auto cert = analyze::make_drf_certificate(c, {}, &why);
    const int crc = emit_certificate(cert, why, certify_path, json);
    if (rc == 0) rc = crc;
  }
  return rc;
}
