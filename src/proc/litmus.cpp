#include "proc/litmus.hpp"

#include "models/compile.hpp"

namespace ccmm::proc {

ObserverFunction observation_observer(const Litmus& litmus,
                                      const ProgramComputation& pc) {
  ObserverFunction reads(pc.c.node_count());
  for (const auto& [rpos, wpos] : litmus.observed) {
    const NodeId r = pc.node(rpos);
    const Op o = pc.c.op(r);
    CCMM_CHECK(o.is_read(), "observation attached to a non-read");
    if (wpos.has_value()) {
      const NodeId w = pc.node(*wpos);
      CCMM_CHECK(pc.c.op(w).writes(o.loc),
                 "observed node does not write the read's location");
      reads.set(o.loc, r, w);
    }
    // nullopt = the read returned the initial value: leave at ⊥ (the
    // completion search pins recorded reads, including ⊥ ones).
  }
  return reads;
}

LitmusVerdict run_litmus(const Litmus& litmus) {
  const ProgramComputation pc = unfold(litmus.program);
  const ObserverFunction reads = observation_observer(litmus, pc);

  const auto sc = find_model_completion(pc.c, reads, *builtin_model(kSuiteSC));
  const auto lc = find_model_completion(pc.c, reads, *builtin_model(kSuiteLC));
  CCMM_CHECK(!sc.exhausted && !lc.exhausted,
             "litmus completion search exhausted its budget");

  LitmusVerdict v{};
  v.sc_allowed = sc.completion.has_value();
  v.lc_allowed = lc.completion.has_value();
  v.matches_expectation =
      v.sc_allowed == litmus.sc_allowed && v.lc_allowed == litmus.lc_allowed;
  return v;
}

namespace {

constexpr Location kX = 0;
constexpr Location kY = 1;

Litmus sb() {
  Litmus t;
  t.name = "SB";
  t.description = "store buffering: both readers miss the other's write";
  const Pos wx = t.program.add(0, Op::write(kX));
  const Pos ry = t.program.add(0, Op::read(kY));
  const Pos wy = t.program.add(1, Op::write(kY));
  const Pos rx = t.program.add(1, Op::read(kX));
  (void)wx;
  (void)wy;
  t.observed = {{ry, std::nullopt}, {rx, std::nullopt}};
  t.sc_allowed = false;
  t.lc_allowed = true;
  return t;
}

Litmus mp(bool with_sync) {
  Litmus t;
  t.name = with_sync ? "MP+sync" : "MP";
  t.description = with_sync
                      ? "message passing with a synchronization edge: the "
                        "stale read disappears even under LC"
                      : "message passing: flag seen, payload stale";
  const Pos wx = t.program.add(0, Op::write(kX));  // payload
  const Pos wy = t.program.add(0, Op::write(kY));  // flag
  const Pos ry = t.program.add(1, Op::read(kY));
  const Pos rx = t.program.add(1, Op::read(kX));
  (void)wx;
  if (with_sync) t.program.sync(wy, ry);
  t.observed = {{ry, wy}, {rx, std::nullopt}};
  t.sc_allowed = false;
  t.lc_allowed = !with_sync;
  return t;
}

Litmus lb() {
  Litmus t;
  t.name = "LB";
  t.description = "load buffering: each thread reads the other's later write";
  const Pos rx = t.program.add(0, Op::read(kX));
  const Pos wy = t.program.add(0, Op::write(kY));
  const Pos ry = t.program.add(1, Op::read(kY));
  const Pos wx = t.program.add(1, Op::write(kX));
  t.observed = {{rx, wx}, {ry, wy}};
  t.sc_allowed = false;
  t.lc_allowed = true;
  return t;
}

Litmus iriw() {
  Litmus t;
  t.name = "IRIW";
  t.description =
      "independent reads of independent writes, observed in opposite orders";
  const Pos wx = t.program.add(0, Op::write(kX));
  const Pos wy = t.program.add(1, Op::write(kY));
  const Pos r2x = t.program.add(2, Op::read(kX));
  const Pos r2y = t.program.add(2, Op::read(kY));
  const Pos r3y = t.program.add(3, Op::read(kY));
  const Pos r3x = t.program.add(3, Op::read(kX));
  t.observed = {{r2x, wx},
                {r2y, std::nullopt},
                {r3y, wy},
                {r3x, std::nullopt}};
  t.sc_allowed = false;
  t.lc_allowed = true;
  return t;
}

Litmus wrc() {
  Litmus t;
  t.name = "WRC";
  t.description = "write-to-read causality chains through a middleman";
  const Pos wx = t.program.add(0, Op::write(kX));
  const Pos rx = t.program.add(1, Op::read(kX));
  const Pos wy = t.program.add(1, Op::write(kY));
  const Pos ry = t.program.add(2, Op::read(kY));
  const Pos rx2 = t.program.add(2, Op::read(kX));
  t.observed = {{rx, wx}, {ry, wy}, {rx2, std::nullopt}};
  t.sc_allowed = false;
  t.lc_allowed = true;
  return t;
}

Litmus corr(bool in_order) {
  Litmus t;
  t.name = in_order ? "CoRR-ok" : "CoRR";
  t.description = in_order
                      ? "reads see a location's writes in order (allowed)"
                      : "reads see a location's writes out of order — even "
                        "plain coherence forbids this";
  const Pos w1 = t.program.add(0, Op::write(kX));
  const Pos w2 = t.program.add(0, Op::write(kX));
  const Pos ra = t.program.add(1, Op::read(kX));
  const Pos rb = t.program.add(1, Op::read(kX));
  if (in_order)
    t.observed = {{ra, w1}, {rb, w2}};
  else
    t.observed = {{ra, w2}, {rb, w1}};
  t.sc_allowed = in_order;
  t.lc_allowed = in_order;
  return t;
}

}  // namespace

std::vector<Litmus> classic_suite() {
  std::vector<Litmus> suite;
  suite.push_back(sb());
  suite.push_back(mp(false));
  suite.push_back(mp(true));
  suite.push_back(lb());
  suite.push_back(iriw());
  suite.push_back(wrc());
  suite.push_back(corr(false));
  suite.push_back(corr(true));
  return suite;
}

}  // namespace ccmm::proc
