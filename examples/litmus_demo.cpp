// litmus_demo — write a multiprocessor program, pick an observed
// outcome, and ask the computation-centric checkers whether any memory
// model in the paper's lattice allows it. Also demonstrates the
// lock-aware lift: the lost-update outcome survives plain SC but no
// serialization of the critical sections.
//
//   $ ./litmus_demo
#include <cstdio>

#include "models/compile.hpp"
#include "proc/litmus.hpp"
#include "proc/locks.hpp"

using namespace ccmm;
using namespace ccmm::proc;

int main() {
  std::printf("-- the classic suite --\n");
  std::printf("%-8s %-10s %-10s\n", "test", "SC", "LC");
  for (const Litmus& t : classic_suite()) {
    const LitmusVerdict v = run_litmus(t);
    std::printf("%-8s %-10s %-10s %s\n", t.name.c_str(),
                v.sc_allowed ? "allowed" : "forbidden",
                v.lc_allowed ? "allowed" : "forbidden",
                v.matches_expectation ? "" : "  <-- UNEXPECTED");
  }

  // A custom test: Dekker-style mutual exclusion *attempt* without
  // hardware SC — both threads enter (reads of the other's flag miss).
  std::printf("\n-- build your own: Dekker's entry protocol --\n");
  Litmus dekker;
  dekker.name = "dekker";
  const Pos w0 = dekker.program.add(0, Op::write(0));  // flag[0] := 1
  const Pos r0 = dekker.program.add(0, Op::read(1));   // read flag[1]
  const Pos w1 = dekker.program.add(1, Op::write(1));  // flag[1] := 1
  const Pos r1 = dekker.program.add(1, Op::read(0));   // read flag[0]
  (void)w0;
  (void)w1;
  dekker.observed = {{r0, std::nullopt}, {r1, std::nullopt}};
  dekker.sc_allowed = false;  // SC protects Dekker
  dekker.lc_allowed = true;   // coherence alone does not
  const LitmusVerdict v = run_litmus(dekker);
  std::printf("both threads enter the critical section: SC says %s, "
              "LC says %s\n",
              v.sc_allowed ? "possible" : "impossible",
              v.lc_allowed ? "possible" : "impossible");
  std::printf("=> on an LC machine, Dekker needs more than coherence.\n");

  // The lock-aware fix: wrap the increments in critical sections.
  std::printf("\n-- locks: the lost update dies under SC+locks --\n");
  ComputationBuilder b;
  const NodeId init = b.write(0);
  const NodeId ra = b.read(0, {init});
  const NodeId wa = b.write(0, {ra});
  const NodeId rb = b.read(0, {init});
  const NodeId wb = b.write(0, {rb});
  const NodeId fin = b.read(0, {wa, wb});
  const Computation c = std::move(b).build();

  ObserverFunction lost(c.node_count());
  lost.set(0, init, init);
  lost.set(0, ra, init);
  lost.set(0, wa, wa);
  lost.set(0, rb, init);  // both increments read the initial value
  lost.set(0, wb, wb);
  lost.set(0, fin, wb);

  const auto sc = builtin_model(kSuiteSC);
  std::printf("lost update under plain SC: %s\n",
              sc->contains(c, lost) ? "allowed" : "forbidden");
  const LockAwareModel locked(sc, {{0, {ra, wa}}, {0, {rb, wb}}});
  std::printf("lost update under SC+locks: %s\n",
              locked.contains(c, lost) ? "allowed" : "forbidden");
  return 0;
}
