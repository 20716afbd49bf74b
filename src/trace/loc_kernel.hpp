// ccmm/trace/loc_kernel.hpp
//
// The per-location grouping kernel behind the race scan
// (analyze/race_oracle.cpp): one O(n) pass bucketing every accessing
// node by location. The checking engine does not group: a clean stream
// reads only its one-pass node → written-location index, and the first
// location to materialize builds the writers the kernel reads from
// that index (trace/session_kernel.hpp).
//
// The buckets are a CSR arena, not per-location vectors: `acc` and
// `wri` are two flat arrays sliced by head offsets, so grouping a
// 100M-node computation costs seven allocations total instead of two
// per location — the allocation-traffic fix the compressed data plane
// is built on. Consumers hold std::span slices; the old
// LocationAccess-of-vectors shape is gone.
//
// The reach-mask sweep kernels that used to live here moved down to
// dag/sweep.hpp, where the SIMD dispatch lives and where both the
// trace and the analyze layers can link them without an upward
// dependency. Header-only for the same layering reason as before:
// ccmm_trace links ccmm_analyze, so a .cpp here would hand the analyze
// library an upward dependency.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/computation.hpp"

namespace ccmm {

/// All locations' accessors and writers in two flat CSR arrays, sorted
/// by location; node ids ascend within each slice (the grouping pass
/// scans ids in order). `writers(i)` ⊆ `accessors(i)`.
struct LocationGroups {
  std::vector<Location> locs;           // sorted
  std::vector<std::uint32_t> acc_head;  // locs.size() + 1
  std::vector<std::uint32_t> wri_head;  // locs.size() + 1
  std::vector<NodeId> acc;
  std::vector<NodeId> wri;

  [[nodiscard]] std::size_t size() const noexcept { return locs.size(); }

  [[nodiscard]] std::span<const NodeId> accessors(std::size_t i) const {
    return {acc.data() + acc_head[i], acc.data() + acc_head[i + 1]};
  }
  [[nodiscard]] std::span<const NodeId> writers(std::size_t i) const {
    return {wri.data() + wri_head[i], wri.data() + wri_head[i + 1]};
  }

  /// Bytes held by the arena (for the data-plane accounting).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return locs.capacity() * sizeof(Location) +
           (acc_head.capacity() + wri_head.capacity()) *
               sizeof(std::uint32_t) +
           (acc.capacity() + wri.capacity()) * sizeof(NodeId);
  }
};

/// Bucket the computation's accesses by location: one discovery pass
/// (hash per node, counts per location), a sort of the location list,
/// and one fill pass through the flat arrays.
[[nodiscard]] inline LocationGroups group_location_accesses(
    const Computation& c) {
  const std::size_t n = c.node_count();
  constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  // Pass 1: discover locations in first-appearance order, remember each
  // node's bucket, count accessors/writers per bucket.
  std::unordered_map<Location, std::uint32_t> index;
  std::vector<Location> found;
  std::vector<std::uint32_t> acc_count;
  std::vector<std::uint32_t> wri_count;
  std::vector<std::uint32_t> node_bucket(n, kNone);
  for (NodeId u = 0; u < n; ++u) {
    const Op o = c.op(u);
    if (o.is_nop()) continue;
    const auto [it, fresh] =
        index.try_emplace(o.loc, static_cast<std::uint32_t>(found.size()));
    if (fresh) {
      found.push_back(o.loc);
      acc_count.push_back(0);
      wri_count.push_back(0);
    }
    node_bucket[u] = it->second;
    ++acc_count[it->second];
    if (o.is_write()) ++wri_count[it->second];
  }

  // Sort the location list; `pos[b]` sends discovery bucket b to its
  // sorted slot.
  const std::size_t nloc = found.size();
  std::vector<std::uint32_t> order(nloc);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return found[a] < found[b];
  });
  std::vector<std::uint32_t> pos(nloc);
  for (std::uint32_t i = 0; i < nloc; ++i) pos[order[i]] = i;

  LocationGroups g;
  g.locs.resize(nloc);
  g.acc_head.assign(nloc + 1, 0);
  g.wri_head.assign(nloc + 1, 0);
  for (std::uint32_t i = 0; i < nloc; ++i) {
    g.locs[i] = found[order[i]];
    g.acc_head[i + 1] = g.acc_head[i] + acc_count[order[i]];
    g.wri_head[i + 1] = g.wri_head[i] + wri_count[order[i]];
  }
  g.acc.resize(g.acc_head[nloc]);
  g.wri.resize(g.wri_head[nloc]);

  // Pass 2: fill. Scanning u ascending keeps every slice id-sorted.
  std::vector<std::uint32_t> acc_at(g.acc_head.begin(),
                                    g.acc_head.end() - 1);
  std::vector<std::uint32_t> wri_at(g.wri_head.begin(),
                                    g.wri_head.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    const std::uint32_t b = node_bucket[u];
    if (b == kNone) continue;
    const std::uint32_t i = pos[b];
    g.acc[acc_at[i]++] = u;
    if (c.op(u).is_write()) g.wri[wri_at[i]++] = u;
  }
  return g;
}

}  // namespace ccmm
