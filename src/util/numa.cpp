#include "util/numa.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#if defined(__linux__)
#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace ccmm {
namespace {

// "0-3,8,10-11" -> {0,1,2,3,8,10,11}. Returns empty on any parse
// trouble; the caller treats that as "no usable cpulist".
std::vector<int> parse_cpulist(const std::string& text) {
  std::vector<int> cpus;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty() || item == "\n") continue;
    const auto dash = item.find('-');
    try {
      if (dash == std::string::npos) {
        cpus.push_back(std::stoi(item));
      } else {
        const int lo = std::stoi(item.substr(0, dash));
        const int hi = std::stoi(item.substr(dash + 1));
        if (hi < lo || hi - lo > 4096) return {};
        for (int c = lo; c <= hi; ++c) cpus.push_back(c);
      }
    } catch (...) {
      return {};
    }
  }
  return cpus;
}

NumaTopology fallback_topology() {
  NumaTopology topo;
  NumaNode node;
  node.id = 0;
#if defined(__linux__)
  const long ncpu = sysconf(_SC_NPROCESSORS_ONLN);
  for (long c = 0; c < (ncpu > 0 ? ncpu : 1); ++c) {
    node.cpus.push_back(static_cast<int>(c));
  }
#else
  node.cpus.push_back(0);
#endif
  topo.nodes.push_back(std::move(node));
  topo.multi_node = false;
  return topo;
}

NumaTopology probe() {
  if (const char* env = std::getenv("CCMM_NUMA");
      env != nullptr && env[0] == '0') {
    return fallback_topology();
  }
#if defined(__linux__)
  NumaTopology topo;
  DIR* dir = opendir("/sys/devices/system/node");
  if (dir == nullptr) return fallback_topology();
  while (dirent* entry = readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.rfind("node", 0) != 0 || name.size() <= 4) continue;
    int id = -1;
    try {
      id = std::stoi(name.substr(4));
    } catch (...) {
      continue;
    }
    std::ifstream cpulist("/sys/devices/system/node/" + name + "/cpulist");
    if (!cpulist) continue;
    std::string text;
    std::getline(cpulist, text);
    NumaNode node;
    node.id = id;
    node.cpus = parse_cpulist(text);
    // Memory-only nodes (no cpus) exist on CXL-style hosts; they cannot
    // host a pinned shard worker, so skip them for placement purposes.
    if (node.cpus.empty()) continue;
    topo.nodes.push_back(std::move(node));
  }
  closedir(dir);
  if (topo.nodes.empty()) return fallback_topology();
  std::sort(topo.nodes.begin(), topo.nodes.end(),
            [](const NumaNode& a, const NumaNode& b) { return a.id < b.id; });
  topo.multi_node = topo.nodes.size() > 1;
  return topo;
#else
  return fallback_topology();
#endif
}

}  // namespace

std::string NumaTopology::to_string() const {
  std::string out = std::to_string(nodes.size()) +
                    (nodes.size() == 1 ? " node" : " nodes");
  if (!multi_node) {
    out += " (single-node placement)";
    return out;
  }
  out += ":";
  for (const NumaNode& node : nodes) {
    out += ' ';
    out += std::to_string(node.id);
    out += '[';
    out += std::to_string(node.cpus.size());
    out += " cpus]";
  }
  return out;
}

const NumaTopology& numa_topology() {
  static const NumaTopology topo = probe();
  return topo;
}

std::vector<std::size_t> plan_shard_placement(std::size_t nshards,
                                              const NumaTopology& topology) {
  std::vector<std::size_t> plan(nshards, 0);
  const std::size_t nnodes = topology.node_count();
  if (nnodes <= 1) return plan;
  for (std::size_t s = 0; s < nshards; ++s) plan[s] = s % nnodes;
  return plan;
}

NumaBinding::NumaBinding(const NumaTopology& topology,
                         std::size_t node_index) {
#if defined(__linux__)
  if (!topology.multi_node || node_index >= topology.node_count()) return;
  const NumaNode& node = topology.nodes[node_index];
  if (node.cpus.empty()) return;
  cpu_set_t saved;
  CPU_ZERO(&saved);
  if (pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved) != 0) {
    return;
  }
  cpu_set_t want;
  CPU_ZERO(&want);
  bool any = false;
  for (const int cpu : node.cpus) {
    // Only request cpus the saved mask already allows: a container
    // cpuset that excludes this node's cpus must not make the pin fail
    // the whole mask, and sched_setaffinity rejects disallowed cpus.
    if (cpu >= 0 && cpu < CPU_SETSIZE && CPU_ISSET(cpu, &saved)) {
      CPU_SET(cpu, &want);
      any = true;
    }
  }
  if (!any) return;
  if (pthread_setaffinity_np(pthread_self(), sizeof(want), &want) != 0) {
    return;
  }
  saved_mask_.assign(reinterpret_cast<const std::uint8_t*>(&saved),
                     reinterpret_cast<const std::uint8_t*>(&saved) +
                         sizeof(saved));
  bound_ = true;
#else
  (void)topology;
  (void)node_index;
#endif
}

NumaBinding::~NumaBinding() {
#if defined(__linux__)
  if (!bound_) return;
  cpu_set_t saved;
  std::memcpy(&saved, saved_mask_.data(), sizeof(saved));
  pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);
#endif
}

}  // namespace ccmm
