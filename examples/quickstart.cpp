// quickstart — the ccmm public API in one tour:
//  1. build a computation (a dag of reads/writes/no-ops),
//  2. build or generate an observer function,
//  3. ask the model checkers where it falls in the paper's lattice,
//  4. run the computation on a simulated machine and verify post-mortem.
//
//   $ ./quickstart
#include <cstdio>

#include "core/last_writer.hpp"
#include "exec/backer.hpp"
#include "exec/sim_machine.hpp"
#include "models/compile.hpp"
#include "models/location_consistency.hpp"
#include "models/qdag.hpp"
#include "models/sequential_consistency.hpp"
#include "trace/postmortem.hpp"
#include "trace/trace.hpp"

using namespace ccmm;

int main() {
  // 1. A computation: two concurrent increments of a shared counter.
  //
  //        init ──> read1 ──> write1 ──┐
  //             └─> read2 ──> write2 ──┴─> final read
  ComputationBuilder b;
  const NodeId init = b.write(0);
  const NodeId r1 = b.read(0, {init});
  const NodeId w1 = b.write(0, {r1});
  const NodeId r2 = b.read(0, {init});
  const NodeId w2 = b.write(0, {r2});
  const NodeId fin = b.read(0, {w1, w2});
  const Computation c = std::move(b).build();
  std::printf("%s\n", c.to_string().c_str());

  // 2a. An observer function by hand: both increments read the initial
  // value (the classic lost-update interleaving), the final read sees w2.
  ObserverFunction phi(c.node_count());
  phi.set(0, init, init);
  phi.set(0, r1, init);
  phi.set(0, w1, w1);
  phi.set(0, r2, init);
  phi.set(0, w2, w2);
  phi.set(0, fin, w2);
  std::printf("handmade observer function:\n%s\n", phi.to_string().c_str());

  // 3. Where does it fall in the lattice?
  std::printf("valid observer: %s\n",
              is_valid_observer(c, phi) ? "yes" : "no");
  std::printf("SC: %s\n", sequentially_consistent(c, phi) ? "yes" : "no");
  std::printf("LC: %s\n", location_consistent(c, phi) ? "yes" : "no");
  for (const DagPred p :
       {DagPred::kNN, DagPred::kNW, DagPred::kWN, DagPred::kWW})
    std::printf("%s-dag consistency: %s\n", dag_pred_name(p),
                qdag_consistent(c, phi, p) ? "yes" : "no");

  // 2b. Or derive one from a topological sort (always SC — Section 4).
  const ObserverFunction w_t = last_writer(c, c.dag().topological_order());
  std::printf("\nlast-writer observer is SC: %s\n",
              sequentially_consistent(c, w_t) ? "yes" : "no");

  // 4. Execute on a simulated 2-processor machine under BACKER and
  // verify the generated behaviour post-mortem.
  Rng rng(42);
  BackerMemory memory;
  const Schedule schedule = work_stealing_schedule(c, 2, rng);
  const ExecutionResult run = run_execution(c, schedule, memory);
  std::printf("\nexecution trace:\n%s", trace_to_string(run.trace, c).c_str());
  const auto report = verify_execution(
      c, run.phi, *builtin_model(kSuiteLC));
  std::printf("post-mortem: %s\n", report.detail.c_str());
  return report.in_model ? 0 : 1;
}
