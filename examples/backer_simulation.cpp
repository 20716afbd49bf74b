// backer_simulation — run a divide-and-conquer reduction (the Cilk-style
// workload the paper's lineage targeted) on a simulated multiprocessor
// under the BACKER coherence algorithm, then verify location consistency
// post-mortem and print the protocol statistics.
//
//   $ ./backer_simulation [leaves] [processors] [cache_lines]
#include <cstdio>
#include <cstdlib>

#include "exec/backer.hpp"
#include "exec/sim_machine.hpp"
#include "exec/workload.hpp"
#include "models/compile.hpp"
#include "trace/postmortem.hpp"
#include "trace/race.hpp"

using namespace ccmm;

int main(int argc, char** argv) {
  const std::size_t leaves =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 64;
  const std::size_t procs =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 4;
  const std::size_t cache =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 16;

  const Computation c = workload::reduction(leaves);
  const WorkSpan ws = work_span(c);
  std::printf("reduction(%zu): %zu nodes, %zu edges, T1=%llu Tinf=%llu\n",
              leaves, c.node_count(), c.dag().edge_count(),
              (unsigned long long)ws.work, (unsigned long long)ws.span);
  std::printf("race-free: %s\n", is_race_free(c) ? "yes" : "no");

  Rng rng(1);
  BackerConfig cfg;
  cfg.cache_capacity = cache;
  BackerMemory memory(cfg);
  const Schedule schedule = work_stealing_schedule(c, procs, rng);
  const ExecutionResult run = run_execution(c, schedule, memory);

  std::printf("\nschedule: P=%zu makespan=%llu steals=%llu (speedup %.2f)\n",
              procs, (unsigned long long)schedule.makespan,
              (unsigned long long)schedule.steals,
              static_cast<double>(ws.work) /
                  static_cast<double>(schedule.makespan));
  std::printf(
      "backer: reads=%llu writes=%llu fetches=%llu reconciles=%llu "
      "flushes=%llu evictions=%llu\n",
      (unsigned long long)run.memory_stats.reads,
      (unsigned long long)run.memory_stats.writes,
      (unsigned long long)run.memory_stats.fetches,
      (unsigned long long)run.memory_stats.reconciles,
      (unsigned long long)run.memory_stats.flushes,
      (unsigned long long)run.memory_stats.evictions);

  const auto report = verify_execution(
      c, run.phi, *builtin_model(kSuiteLC));
  std::printf("\npost-mortem: %s\n", report.detail.c_str());

  // On a race-free computation every read must have seen its producer.
  std::size_t deterministic_reads = 0, reads = 0;
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    if (!o.is_read()) continue;
    ++reads;
    const NodeId obs = run.phi.get(o.loc, u);
    if (obs != kBottom && c.precedes(obs, u)) ++deterministic_reads;
  }
  std::printf("deterministic reads: %zu/%zu\n", deterministic_reads, reads);
  return report.in_model && deterministic_reads == reads ? 0 : 1;
}
