// The classic litmus verdicts, decided computation-centrically: SC
// forbids the relaxed outcomes, coherence (= LC) allows all but CoRR.
#include "proc/litmus.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "models/compile.hpp"

namespace ccmm::proc {
namespace {

TEST(Litmus, ClassicSuiteMatchesTextbookVerdicts) {
  for (const Litmus& t : classic_suite()) {
    const LitmusVerdict v = run_litmus(t);
    EXPECT_TRUE(v.matches_expectation)
        << t.name << ": SC " << v.sc_allowed << " (want " << t.sc_allowed
        << "), LC " << v.lc_allowed << " (want " << t.lc_allowed << ")";
  }
}

TEST(Litmus, SuiteCoversBothVerdictKinds) {
  std::size_t sc_forbidden = 0, lc_allowed_sc_forbidden = 0,
              both_forbidden = 0, both_allowed = 0;
  for (const Litmus& t : classic_suite()) {
    if (!t.sc_allowed) ++sc_forbidden;
    if (!t.sc_allowed && t.lc_allowed) ++lc_allowed_sc_forbidden;
    if (!t.sc_allowed && !t.lc_allowed) ++both_forbidden;
    if (t.sc_allowed && t.lc_allowed) ++both_allowed;
  }
  EXPECT_GE(sc_forbidden, 5u);
  EXPECT_GE(lc_allowed_sc_forbidden, 4u);  // SB, MP, LB, IRIW, WRC
  EXPECT_GE(both_forbidden, 2u);           // MP+sync, CoRR
  EXPECT_GE(both_allowed, 1u);             // CoRR-ok
}

TEST(Litmus, ObservationObserverPinsOnlyReads) {
  const Litmus sb = classic_suite().front();
  const ProgramComputation pc = unfold(sb.program);
  const ObserverFunction reads = observation_observer(sb, pc);
  // SB's observed reads both returned ⊥: the partial observer is empty,
  // but the *pinning* happens inside the completion search.
  EXPECT_TRUE(reads.active_locations().empty());
}

TEST(Litmus, ObservationValidation) {
  Litmus bad;
  bad.name = "bad";
  const Pos w = bad.program.add(0, Op::write(0));
  const Pos r = bad.program.add(0, Op::read(0));
  (void)r;
  bad.observed = {{w, std::nullopt}};  // attached to a write
  const ProgramComputation pc = unfold(bad.program);
  EXPECT_THROW((void)observation_observer(bad, pc), std::logic_error);
}

TEST(Litmus, SyncEdgeStrengthensMessagePassing) {
  // Directly: MP allowed under LC, MP+sync forbidden under LC.
  const auto suite = classic_suite();
  const auto mp = std::find_if(suite.begin(), suite.end(),
                               [](const Litmus& t) { return t.name == "MP"; });
  const auto mps =
      std::find_if(suite.begin(), suite.end(),
                   [](const Litmus& t) { return t.name == "MP+sync"; });
  ASSERT_NE(mp, suite.end());
  ASSERT_NE(mps, suite.end());
  EXPECT_TRUE(run_litmus(*mp).lc_allowed);
  EXPECT_FALSE(run_litmus(*mps).lc_allowed);
}

TEST(Litmus, WeakDagModelsAllowEvenCoRR) {
  // WW is so weak it admits the out-of-order CoRR outcome.
  const auto suite = classic_suite();
  const auto corr =
      std::find_if(suite.begin(), suite.end(),
                   [](const Litmus& t) { return t.name == "CoRR"; });
  ASSERT_NE(corr, suite.end());
  const ProgramComputation pc = unfold(corr->program);
  const ObserverFunction reads = observation_observer(*corr, pc);
  const auto ww = find_model_completion(pc.c, reads, *builtin_model(kSuiteWW));
  EXPECT_TRUE(ww.completion.has_value());
}

}  // namespace
}  // namespace ccmm::proc
