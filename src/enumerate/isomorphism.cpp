#include "enumerate/isomorphism.hpp"

#include <algorithm>
#include <unordered_set>

#include "enumerate/canonical.hpp"
#include "enumerate/dag_enum.hpp"

namespace ccmm {
namespace {

/// Apply a node relabeling: new id of u is perm[u]. Returns nullopt when
/// the relabeled edges are not id-sorted (so encode_computation would
/// reject them).
std::optional<Computation> relabel_sorted(const Computation& c,
                                          const std::vector<NodeId>& perm) {
  const std::size_t n = c.node_count();
  DagBuilder dag(n);
  for (NodeId u = 0; u < n; ++u)
    for (const NodeId v : c.dag().succ(u)) {
      if (perm[u] >= perm[v]) return std::nullopt;
      dag.add_edge(perm[u], perm[v]);
    }
  std::vector<Op> ops(n);
  for (NodeId u = 0; u < n; ++u) ops[perm[u]] = c.op(u);
  return Computation(dag.build(), std::move(ops));
}

}  // namespace

std::string canonical_encoding(const Computation& c) {
  const std::size_t n = c.node_count();
  CCMM_CHECK(n <= 9, "canonical_encoding is factorial; limited to <= 9 nodes");
  std::vector<NodeId> perm(n);
  for (NodeId u = 0; u < n; ++u) perm[u] = u;

  std::optional<std::string> best;
  do {
    const auto relabeled = relabel_sorted(c, perm);
    if (!relabeled.has_value()) continue;
    std::string enc = encode_computation(*relabeled);
    if (!best.has_value() || enc < *best) best = std::move(enc);
  } while (std::next_permutation(perm.begin(), perm.end()));
  CCMM_ASSERT(best.has_value());  // identity-compatible order always exists
  return *best;
}

bool are_isomorphic(const Computation& a, const Computation& b) {
  if (a.node_count() != b.node_count()) return false;
  if (a.dag().edge_count() != b.dag().edge_count()) return false;
  // Cheap invariants first: sorted op multiset and degree sequences.
  auto ops_of = [](const Computation& c) {
    std::vector<std::pair<int, Location>> v;
    for (NodeId u = 0; u < c.node_count(); ++u)
      v.emplace_back(static_cast<int>(c.op(u).kind), c.op(u).loc);
    std::sort(v.begin(), v.end());
    return v;
  };
  if (ops_of(a) != ops_of(b)) return false;
  auto degrees_of = [](const Computation& c) {
    std::vector<std::pair<std::size_t, std::size_t>> v;
    for (NodeId u = 0; u < c.node_count(); ++u)
      v.emplace_back(c.dag().pred(u).size(), c.dag().succ(u).size());
    std::sort(v.begin(), v.end());
    return v;
  };
  if (degrees_of(a) != degrees_of(b)) return false;
  return canonical_key(a) == canonical_key(b);
}

std::uint64_t computation_count_up_to_iso(const UniverseSpec& spec) {
  std::uint64_t classes = 0;
  for_each_computation_up_to_iso(spec,
                                 [&](const Computation&, std::uint64_t) {
                                   ++classes;
                                   return true;
                                 });
  return classes;
}

std::uint64_t unlabeled_dag_count(std::size_t n) {
  std::unordered_set<std::string> classes;
  for_each_topo_dag(n, [&](const Dag& d) {
    const Computation c(d, std::vector<Op>(n, Op::nop()));
    classes.insert(canonical_key(c));
    return true;
  });
  return classes.size();
}

}  // namespace ccmm
