// The classic litmus tests, decided computation-centrically: each
// outcome is a reads-only partial observer function; "allowed under Δ"
// is completion-search membership. Reproduces the textbook verdict
// table — SC forbids the relaxed outcomes, coherence (= the paper's LC)
// allows all of them except CoRR — and shows how a synchronization edge
// (computation structure!) removes the stale MP outcome even under LC.
#include "experiment_common.hpp"
#include "models/compile.hpp"
#include "proc/litmus.hpp"

namespace ccmm {
namespace {

int run() {
  experiment::Harness h("Litmus suite — processor programs, "
                        "computation-centric verdicts");

  TextTable t({"test", "SC", "LC", "WW", "expected SC/LC", "verdict"});
  for (const proc::Litmus& test : proc::classic_suite()) {
    const proc::LitmusVerdict v = proc::run_litmus(test);

    // Also ask the weakest dag model, for contrast.
    const proc::ProgramComputation pc = proc::unfold(test.program);
    const ObserverFunction reads = proc::observation_observer(test, pc);
    const auto ww =
        find_model_completion(pc.c, reads, *builtin_model(kSuiteWW));

    t.add_row({test.name, v.sc_allowed ? "allowed" : "forbidden",
               v.lc_allowed ? "allowed" : "forbidden",
               ww.completion.has_value() ? "allowed" : "forbidden",
               format("%s/%s", test.sc_allowed ? "allowed" : "forbidden",
                      test.lc_allowed ? "allowed" : "forbidden"),
               v.matches_expectation ? "PASS" : "FAIL"});
    h.check(v.matches_expectation,
            format("%s — %s", test.name.c_str(),
                   test.description.c_str()));
  }
  h.note(t.render());
  h.note("LC = per-location coherence: it admits every classic relaxed\n"
         "outcome except reading one location's writes out of order\n"
         "(CoRR) — exactly the paper's point that location consistency\n"
         "is the weakest model that still serializes each location.");
  return h.finish();
}

}  // namespace
}  // namespace ccmm

int main() { return ccmm::run(); }
