#include "enumerate/dag_enum.hpp"

#include <bit>
#include <vector>

#include "util/check.hpp"

namespace ccmm {

std::uint64_t topo_dag_count(std::size_t n) {
  const std::size_t pairs = n * (n - (n > 0 ? 1 : 0)) / 2;
  CCMM_CHECK(pairs < 64, "too many node pairs to enumerate");
  return std::uint64_t{1} << pairs;
}

Dag dag_from_mask(std::size_t n, std::uint64_t mask) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(std::popcount(mask)));
  std::size_t bit = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++bit) {
      if ((mask >> bit) & 1u)
        edges.push_back({static_cast<NodeId>(i), static_cast<NodeId>(j)});
    }
  }
  return Dag(n, edges);
}

std::uint64_t dag_mask(const Dag& dag) {
  const std::size_t n = dag.node_count();
  std::uint64_t mask = 0;
  std::size_t bit = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++bit) {
      CCMM_CHECK(!dag.has_edge(static_cast<NodeId>(j), static_cast<NodeId>(i)),
                 "dag_mask requires topologically sorted node ids");
      if (dag.has_edge(static_cast<NodeId>(i), static_cast<NodeId>(j)))
        mask |= std::uint64_t{1} << bit;
    }
  }
  return mask;
}

bool for_each_topo_dag(std::size_t n,
                       const std::function<bool(const Dag&)>& visit) {
  const std::uint64_t total = topo_dag_count(n);
  for (std::uint64_t mask = 0; mask < total; ++mask)
    if (!visit(dag_from_mask(n, mask))) return false;
  return true;
}

std::uint64_t labeled_dag_count(std::size_t n) {
  CCMM_CHECK(n <= 8, "labeled dag counts overflow past n = 8");
  // A003024 recurrence: a(n) = sum_{k>=1} (-1)^(k+1) C(n,k) 2^(k(n-k)) a(n-k).
  std::vector<std::int64_t> a(n + 1, 0);
  a[0] = 1;
  // Pascal triangle for binomials.
  std::vector<std::vector<std::int64_t>> binom(n + 1,
                                               std::vector<std::int64_t>(n + 1));
  for (std::size_t i = 0; i <= n; ++i) {
    binom[i][0] = 1;
    for (std::size_t j = 1; j <= i; ++j)
      binom[i][j] = binom[i - 1][j - 1] + (j <= i - 1 ? binom[i - 1][j] : 0);
  }
  for (std::size_t m = 1; m <= n; ++m) {
    std::int64_t total = 0;
    for (std::size_t k = 1; k <= m; ++k) {
      const std::int64_t term =
          binom[m][k] * (std::int64_t{1} << (k * (m - k))) * a[m - k];
      total += (k % 2 == 1) ? term : -term;
    }
    a[m] = total;
  }
  return static_cast<std::uint64_t>(a[n]);
}

}  // namespace ccmm
