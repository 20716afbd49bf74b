#include "proc/program.hpp"

namespace ccmm::proc {

Pos Program::add(std::size_t thread, Op o) {
  if (thread >= threads.size()) threads.resize(thread + 1);
  threads[thread].push_back(o);
  return {thread, threads[thread].size() - 1};
}

ProgramComputation unfold(const Program& program) {
  ProgramComputation out;
  out.node_of.resize(program.threads.size());
  // Interleave thread chains by position so node ids stay topologically
  // sorted regardless of sync edge direction... sync edges may point
  // "backward" across threads, so lay out nodes level by level instead:
  // node ids in (index, thread) order keeps program order sorted; sync
  // edges are then validated by the acyclicity check in Computation.
  std::size_t longest = 0;
  for (const auto& t : program.threads) longest = std::max(longest, t.size());

  // First create all nodes in (index, thread) order.
  std::vector<Op> ops;
  DagBuilder dag;
  for (std::size_t i = 0; i < longest; ++i) {
    for (std::size_t t = 0; t < program.threads.size(); ++t) {
      if (i >= program.threads[t].size()) continue;
      const NodeId id = dag.add_nodes(1);
      ops.push_back(program.threads[t][i]);
      out.node_of[t].push_back(id);
      if (i > 0) dag.add_edge(out.node_of[t][i - 1], id);
    }
  }

  // Sync edges last; positions must exist, and the result must stay
  // acyclic. They may point backward in id space.
  for (const auto& [from, to] : program.sync_edges) {
    CCMM_CHECK(from.thread < out.node_of.size() &&
                   from.index < out.node_of[from.thread].size(),
               "sync source out of range");
    CCMM_CHECK(to.thread < out.node_of.size() &&
                   to.index < out.node_of[to.thread].size(),
               "sync target out of range");
    const NodeId a = out.node_of[from.thread][from.index];
    const NodeId b = out.node_of[to.thread][to.index];
    CCMM_CHECK(a != b, "sync edge endpoints coincide");
    dag.add_edge(a, b);
  }
  Dag built = dag.build();
  CCMM_CHECK(built.is_acyclic(), "sync edges create a cycle");
  out.c = Computation(std::move(built), std::move(ops));
  return out;
}

}  // namespace ccmm::proc
