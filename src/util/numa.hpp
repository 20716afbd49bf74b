// ccmm/util/numa.hpp
//
// NUMA topology probe + shard placement for the streaming data plane.
// The checking engine (trace/session_kernel.hpp) and the race scan
// shard per-location work across a ThreadPool; on multi-socket
// machines the per-shard scratch arenas and columns (tens of bytes per
// node each) should live on the memory node of the worker that fills
// and re-reads them. Linux gives us that for free via the first-touch
// policy — pages are placed on the node of the thread that first
// writes them — PROVIDED the worker stays on one node while it touches
// its arena. So placement here is two pieces:
//
//  * probe_numa_topology(): parse /sys/devices/system/node/node*/cpulist
//    into {node id, cpu list} entries. No libnuma dependency — the
//    sysfs files are the stable kernel ABI, and a parse failure (or a
//    non-Linux host, or CCMM_NUMA=0) degrades to a single synthetic
//    node covering every cpu, which disables pinning entirely.
//  * NumaBinding: RAII scope that pins the calling thread to one
//    node's cpuset (sched_setaffinity) and restores the original mask
//    on destruction. On a single-node topology it is a no-op, so the
//    engine code can bind unconditionally.
//
// plan_shard_placement() round-robins shards across nodes so the
// arenas spread instead of crowding node 0 (where the main thread
// usually first-touches everything).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ccmm {

struct NumaNode {
  int id = 0;
  std::vector<int> cpus;  // sorted cpu ids in this node's cpulist
};

struct NumaTopology {
  std::vector<NumaNode> nodes;  // sorted by id; never empty after probe
  /// True when sysfs exposed more than one memory node AND pinning is
  /// not disabled (CCMM_NUMA=0). When false, NumaBinding is a no-op
  /// and the engine runs exactly as on a single-socket machine.
  bool multi_node = false;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes.size();
  }
  /// One-line summary for reports: "1 node (numa off)" /
  /// "2 nodes: 0[0-15] 1[16-31]".
  [[nodiscard]] std::string to_string() const;
};

/// Probe sysfs once per process (cached; cheap to call repeatedly).
/// Honors CCMM_NUMA=0 (forces the single-node fallback — the parity
/// switch CI diffs against a default run).
[[nodiscard]] const NumaTopology& numa_topology();

/// shard -> node index (into topology.nodes) for `nshards` shards,
/// round-robin. On a single-node topology every shard maps to node 0.
[[nodiscard]] std::vector<std::size_t> plan_shard_placement(
    std::size_t nshards, const NumaTopology& topology);

/// Pin the calling thread to `node`'s cpus for this scope (first-touch
/// arena allocation inside the scope then lands on that node). No-op
/// when the topology is single-node, the node has no cpus, or the
/// affinity syscall fails (the engine must never die over placement).
class NumaBinding {
 public:
  NumaBinding(const NumaTopology& topology, std::size_t node_index);
  ~NumaBinding();

  NumaBinding(const NumaBinding&) = delete;
  NumaBinding& operator=(const NumaBinding&) = delete;

  /// True when the pin actually happened (reports print it).
  [[nodiscard]] bool bound() const noexcept { return bound_; }

 private:
  bool bound_ = false;
  std::vector<std::uint8_t> saved_mask_;  // opaque cpu_set_t bytes
};

}  // namespace ccmm
