// ccmm_check — the command-line front door: read a computation (and
// optionally an observer function) from a file in the ccmm text format
// or the computation's binary image (see src/io/text.hpp) and report
// model memberships, a validity diagnosis, witnesses, races, and an
// optional DOT rendering.
//
//   $ ./ccmm_check instance.txt           # classify the pair
//   $ ./ccmm_check instance.txt --dot     # also emit graphviz
//   $ ./ccmm_check --example > demo.txt   # write a sample instance
//   $ ./ccmm_check --fixpoint 5           # worklist Δ* schedule stats
//   $ ./ccmm_check instance.txt --trace t.txt    # stream-check a trace
//   $ ./ccmm_check instance.txt --trace t.tbin   # binary traces auto-detect
//   $ ./ccmm_check --trace-demo 1000000   # million-node streaming demo
//   $ ./ccmm_check --trace-demo 500 --emit run
//       # + write run.txt/run.cimg (instance as text and as image) and
//       # run.trace/run.tbin (trace as text and as binary)
//   $ ./ccmm_check --list-models          # bundled spec registry + lattice
//   $ ./ccmm_check instance.txt --spec pack.spec   # classify user models
//   $ ./ccmm_check instance.txt --model TSO        # one bundled model
//   $ ./ccmm_check instance.txt --spec pack.spec --trace t.tbin
//       # stream-decide the pack's models on a recorded trace
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "construct/fixpoint.hpp"
#include "construct/witness.hpp"
#include "exec/sc_memory.hpp"
#include "exec/schedule.hpp"
#include "io/dot.hpp"
#include "io/text.hpp"
#include "models/compile.hpp"
#include "models/location_consistency.hpp"
#include "models/qdag.hpp"
#include "models/sequential_consistency.hpp"
#include "models/spec.hpp"
#include "proc/random_program.hpp"
#include "trace/lint_pipeline.hpp"
#include "trace/race.hpp"
#include "trace/spec_check.hpp"
#include "trace/trace_binary.hpp"

using namespace ccmm;

namespace {

/// Run the quotient Δ* fixpoint of NN and print the judging volume per
/// round: round 1 is a full pass, later rounds re-judge only the
/// dependents of the pairs the previous wave killed.
int fixpoint_report(std::size_t max_nodes) {
  UniverseSpec spec;
  spec.max_nodes = max_nodes;
  spec.nlocations = 1;
  spec.include_nop = false;
  spec.max_writes_per_location = 2;
  using clock = std::chrono::steady_clock;

  std::printf("Δ*(NN) on the thin universe, n <= %zu:\n", max_nodes);
  FixpointStats st;
  const auto t0 = clock::now();
  (void)constructible_version_quotient(*builtin_model(kSuiteNN), spec, &st);
  const double ms =
      std::chrono::duration<double, std::milli>(clock::now() - t0).count();
  std::printf("worklist: %.1f ms, %zu -> %zu pairs (pruned %zu)\n", ms,
              st.initial_pairs, st.final_pairs, st.pruned);
  std::printf("  judged per round:");
  for (const std::size_t j : st.judged_pairs_per_round) std::printf(" %zu", j);
  std::printf("\n");
  std::printf("  support edges %zu, repairs %zu, rejudged %zu, "
              "worklist peak %zu\n",
              st.support_edges, st.repairs, st.rejudged_pairs,
              st.worklist_peak);
  return 0;
}

/// The trace lint's options for an n-node computation. The race count
/// is exact, as ccmm_lint reports it, not the pipeline's 2^16 clamp:
/// the scan counts exactly and materializes only the reported races.
/// Multi-million-node postmortems get a live progress line: a
/// \r-rewritten percentage on stderr after every consumed chunk, erased
/// once the scan completes. Below a million nodes the scan is
/// sub-second and the line would only flicker.
analyze::TraceLintOptions lint_options(std::size_t n) {
  analyze::TraceLintOptions topt;
  topt.analysis.scan.max_races = SIZE_MAX;
  if (n <= 1'000'000) return topt;
  topt.progress = [](std::size_t done, std::size_t total) {
    std::fprintf(stderr, "\r  streaming check... %3.0f%% (%zu/%zu nodes)",
                 100.0 * static_cast<double>(done) /
                     static_cast<double>(total),
                 done, total);
    if (done >= total) std::fprintf(stderr, "\r\x1b[K");
    std::fflush(stderr);
  };
  return topt;
}

/// Run the full streaming lint pipeline on a recorded trace: model
/// verdicts for the trace's observer, the oracle-backed race scan with
/// bounded witnesses, trace-sharpened lints, and the DRF ⇒ agreement
/// certificate when the scan comes back clean. No transitive closure
/// anywhere on this path.
int trace_report(const Computation& c, const char* trace_path,
                 std::vector<std::shared_ptr<const CompiledModel>> models) {
  // load_trace sniffs the magic: binary traces are mmapped and checked
  // where they lie (the Trace keeps the mapping), text traces go through
  // the line parser.
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
  analyze::TraceLintOptions topt = lint_options(c.node_count());
  topt.spec_models = std::move(models);
  const analyze::TraceLintResult r = analyze::analyze_trace(c, trace, topt);
  std::printf("%s", r.to_string().c_str());
  const bool lc_ok = r.report.has_value() && r.report->in_model(kSuiteLC);
  const bool no_errors = analyze::count_severities(r.diagnostics).errors == 0;
  // A spec model that could not be decided (an exhausted search) is a
  // failure for gating purposes; a decided non-membership is an answer,
  // not an error.
  const bool specs_decided =
      std::all_of(r.spec_verdicts.begin(), r.spec_verdicts.end(),
                  [](const SpecModelVerdict& v) { return v.decided; });
  return r.trace_ok && lc_ok && no_errors && specs_decided ? 0 : 1;
}

/// Self-contained scale demo: synthesize a fork/join program of ~n
/// memory instructions, execute it, and stream-check the recorded
/// trace. At n = 1'000'000 the closure path would need ~250 GB of
/// reachability bitsets; the SP-order oracle uses 8 bytes per node.
/// With `emit_prefix`, the run's artifacts are written to PREFIX.txt
/// (instance text), PREFIX.cimg (the instance's binary image),
/// PREFIX.trace (text trace) and PREFIX.tbin (the binary mmap-able
/// trace) — any pair is consumable by
/// `ccmm_lint <PREFIX>.{txt,cimg} --trace <PREFIX>.{trace,tbin}`.
int trace_demo(std::size_t n, const char* emit_prefix) {
  Rng rng(2026);
  proc::RandomCilkOptions opt;
  opt.target_ops = n;
  opt.nlocations = 16;
  std::printf("synthesizing a ~%zu-instruction fork/join program...\n", n);
  const Computation c = proc::random_cilk(opt, rng);
  std::printf("executing (%zu nodes)...\n", c.node_count());
  ScMemory mem;
  const ExecutionResult run = run_serial(c, mem);
  if (emit_prefix != nullptr) {
    const std::string base = emit_prefix;
    std::ofstream ci(base + ".txt");
    std::ofstream cm(base + ".cimg", std::ios::binary);
    std::ofstream ct(base + ".trace");
    std::ofstream cb(base + ".tbin", std::ios::binary);
    ci << io::write_computation(c);
    cm << io::write_computation_image(c);
    write_trace(run.trace, ct);
    write_trace_binary(run.trace, cb);
    if (!ci || !cm || !ct || !cb) {
      std::fprintf(stderr, "cannot write %s.{txt,cimg,trace,tbin}\n",
                   emit_prefix);
      return 2;
    }
    std::printf("wrote %s.txt, %s.cimg, %s.trace and %s.tbin\n", emit_prefix,
                emit_prefix, emit_prefix, emit_prefix);
  }
  std::printf("streaming lint pipeline on the trace:\n");
  analyze::TraceLintOptions topt = lint_options(c.node_count());
  if (c.node_count() > (std::size_t{1} << 23)) {
    // The per-node lints would drown the report in hundreds of
    // thousands of dead-write notes at this scale.
    topt.analysis.lint = false;
    std::printf("(scale demo: skipping per-node lints)\n");
  }
  const analyze::TraceLintResult r =
      analyze::analyze_trace(c, run.trace, topt);
  std::printf("%s", r.to_string().c_str());
  return r.trace_ok && r.report.has_value() && r.report->valid_observer ? 0
                                                                        : 1;
}

/// --list-models: every registry entry with its surface syntax and the
/// derived implications classify() prunes with.
int list_models(const ModelRegistry& registry) {
  const auto& entries = registry.entries();
  std::printf("%zu models (8 built-ins + packs):\n", entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::printf("%s", entries[i].spec.to_string().c_str());
    std::string implied;
    const std::uint64_t row = registry.implies_mask(i);
    for (std::size_t j = 0; j < entries.size(); ++j) {
      if (j == i || (row & (std::uint64_t{1} << j)) == 0) continue;
      if (!implied.empty()) implied += ", ";
      implied += entries[j].spec.name;
    }
    if (!implied.empty())
      std::printf("# %s => %s\n", entries[i].spec.name.c_str(),
                  implied.c_str());
    std::printf("\n");
  }
  return 0;
}

int emit_example() {
  const NonconstructibilityWitness w = figure4_witness();
  std::fputs("# ccmm instance: the paper's Figure-4 pair (in NN, not LC)\n",
             stdout);
  std::fputs(io::write_pair(w.c, w.phi).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool want_dot = false;
  bool want_list = false;
  const char* path = nullptr;
  const char* trace_path = nullptr;
  std::vector<std::string> spec_paths;
  std::vector<std::string> model_names;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--example") == 0) return emit_example();
    if (std::strcmp(argv[i], "--fixpoint") == 0) {
      const std::size_t n =
          i + 1 < argc ? std::strtoul(argv[i + 1], nullptr, 10) : 5;
      return fixpoint_report(n == 0 ? 5 : n);
    }
    if (std::strcmp(argv[i], "--trace-demo") == 0) {
      const std::size_t n =
          i + 1 < argc ? std::strtoul(argv[i + 1], nullptr, 10) : 0;
      const char* emit = nullptr;
      for (int j = i + 1; j + 1 < argc; ++j)
        if (std::strcmp(argv[j], "--emit") == 0) emit = argv[j + 1];
      return trace_demo(n == 0 ? 1'000'000 : n, emit);
    }
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--spec") == 0 && i + 1 < argc) {
      spec_paths.push_back(argv[++i]);
      continue;
    }
    if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc) {
      model_names.push_back(argv[++i]);
      continue;
    }
    if (std::strcmp(argv[i], "--list-models") == 0)
      want_list = true;
    else if (std::strcmp(argv[i], "--dot") == 0)
      want_dot = true;
    else
      path = argv[i];
  }

  // The compiled-model registry: the eight built-ins + the bundled
  // pack, extended by every --spec file (replace-by-name).
  ModelRegistry registry = ModelRegistry::bundled();
  std::vector<std::shared_ptr<const CompiledModel>> selected;
  try {
    selected = load_spec_models(registry, spec_paths, model_names);
  } catch (const SpecLoadError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (want_list) return list_models(registry);

  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: ccmm_check <instance.txt> [--dot]\n"
                 "       ccmm_check <instance.txt> --trace FILE  (stream-"
                 "check a recorded trace;\n"
                 "            text and binary formats are auto-detected)\n"
                 "       ccmm_check --example     (print a sample instance)\n"
                 "       ccmm_check --fixpoint N  (worklist Δ* schedule "
                 "report)\n"
                 "       ccmm_check --trace-demo N [--emit PREFIX]\n"
                 "           (synthesize, execute and stream-check ~N ops;\n"
                 "            --emit writes PREFIX.txt + PREFIX.cimg +\n"
                 "            PREFIX.trace + PREFIX.tbin for ccmm_lint\n"
                 "            --trace)\n"
                 "       ccmm_check --list-models [--spec FILE]\n"
                 "           (print the compiled-model registry and its\n"
                 "            derived implication lattice)\n"
                 "       ccmm_check <instance.txt> --spec FILE [--model NAME]\n"
                 "           (classify the pair against compiled specs; with\n"
                 "            --trace the spec models are decided on the\n"
                 "            streaming path)\n");
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 2;
  }
  io::TextPair pair;
  try {
    pair = io::read_pair(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  if (trace_path != nullptr)
    return trace_report(pair.c, trace_path, std::move(selected));

  std::printf("%s", pair.c.to_string().c_str());
  const auto races = find_races(pair.c);
  std::printf("races: %zu%s\n", races.size(),
              races.empty() ? " (deterministic under NN and above)" : "");

  if (!pair.phi.has_value()) {
    std::printf("no observer block: structural report only.\n");
    if (want_dot) std::printf("%s", io::to_dot(pair.c).c_str());
    return 0;
  }

  const ObserverFunction& phi = *pair.phi;
  using clock = std::chrono::steady_clock;
  const auto us_since = [](clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(clock::now() - t0)
        .count();
  };

  // One shared preparation (validity verdict, frozen reachability, per-
  // location write blocks) serves every model check below.
  CheckContext ctx;
  const auto tp = clock::now();
  const PreparedPair p = ctx.prepare(pair.c, phi);
  const double prep_us = us_since(tp);
  if (!p.valid()) {
    std::printf("observer function INVALID: %s\n", p.validity().reason.c_str());
    return 1;
  }
  std::printf("observer function: valid (Definition 2)\n");
  std::printf("shared preparation: %.1f us (paid once for all models)\n",
              prep_us);
  // Decide every written location's kernel bits up front, so each row
  // below times its own work and not the kernel runs the rows share.
  const auto tk = clock::now();
  for (const PreparedPair::LocationPrep& lp : p.locations())
    (void)p.violated_at(lp, kLargeCheckExt);
  std::printf("shared kernel: %.1f us (every location's bits, once)\n",
              us_since(tk));
  std::printf("\nmemberships:      check time\n");

  const auto row = [&](const char* name, auto&& check) {
    const auto t0 = clock::now();
    const bool member = check();
    std::printf("  %-4s %-3s %10.1f us\n", name, member ? "yes" : "no",
                us_since(t0));
    return member;
  };
  ScOptions sc_opt;
  sc_opt.budget = 5'000'000;
  ScResult sc;
  row("SC", [&] {
    sc = sc_check_prepared(p, sc_opt);
    return sc.status == SearchStatus::kYes;
  });
  if (sc.status == SearchStatus::kExhausted)
    std::printf("       (search budget exhausted: SC verdict unknown)\n");
  row("LC", [&] { return location_consistent_prepared(p); });
  row("NN", [&] { return qdag_consistent_prepared(p, DagPred::kNN); });
  row("NW", [&] { return qdag_consistent_prepared(p, DagPred::kNW); });
  row("WN", [&] { return qdag_consistent_prepared(p, DagPred::kWN); });
  row("WN+", [&] { return builtin_model(kSuiteWNPlus)->contains_prepared(p); });
  row("WW", [&] { return qdag_consistent_prepared(p, DagPred::kWW); });

  // Compiled spec models share the same preparation; undecided means a
  // serialization search ran out of budget.
  if (!selected.empty()) {
    std::printf("\ncompiled models:  check time\n");
    for (const auto& m : selected) {
      const auto t0 = clock::now();
      const CompiledVerdict cv = m->check_prepared(p);
      std::printf("  %-4s %-3s %10.1f us\n", m->name().c_str(),
                  cv.exhausted ? "?" : (cv.member ? "yes" : "no"),
                  us_since(t0));
      if (cv.exhausted)
        std::printf("       (search budget exhausted: verdict unknown)\n");
    }
  }

  // Diagnostics for the strongest failing dag model.
  QDagViolation v;
  if (!qdag_consistent_prepared(p, DagPred::kWW, &v))
    std::printf("\nWW violation: %s\n", v.to_string().c_str());
  else if (!qdag_consistent_prepared(p, DagPred::kNN, &v))
    std::printf("\nNN violation: %s\n", v.to_string().c_str());

  if (sc.status == SearchStatus::kYes && sc.witness.has_value()) {
    std::printf("\nSC witness order:");
    for (const NodeId u : *sc.witness) std::printf(" %u", u);
    std::printf("\n");
  }
  if (want_dot) std::printf("\n%s", io::to_dot(pair.c, &phi).c_str());
  return 0;
}
