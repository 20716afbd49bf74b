#include "core/location_index.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <unordered_map>

namespace ccmm {

LocationIndex::LocationIndex(const Computation& c) {
  const std::size_t n = c.node_count();
  const Op* ops = c.ops().data();
  const std::size_t dense_limit = n + 1024;
  // Pass 1: each node's key << 1 | is-write into the node table, and
  // each key's writer count. A location's key is its id while every id
  // is below dense_limit.
  access_.resize(n);
  std::uint32_t* access = access_.data();
  std::vector<std::uint32_t> writes;
  bool dense = true;
  for (std::size_t u = 0; u < n; ++u) {
    const Op o = ops[u];
    if (o.is_nop()) {
      access[u] = kNoWrittenLoc;
      continue;
    }
    if (o.loc >= writes.size()) {
      dense = o.loc < dense_limit;
      if (!dense) break;
      writes.resize(std::min(dense_limit, std::max<std::size_t>(
                                              2 * writes.size(), o.loc + 1)),
                    0);
    }
    const std::uint32_t is_write = o.is_write() ? 1u : 0u;
    access[u] = o.loc << 1 | is_write;
    writes[o.loc] += is_write;
  }
  // A large id: pass 1 again, with the locations' first-appearance
  // numbers as keys. A location recurs far more often than it appears,
  // so a 1024-entry direct-mapped cache answers most lookups before the
  // hash map.
  std::vector<Location> found;  // key → location
  if (!dense) {
    struct Cached {
      Location loc = 0;
      std::uint32_t key = kNoWrittenLoc;
    };
    std::array<Cached, 1024> cache{};
    std::unordered_map<Location, std::uint32_t> key_of;
    writes.clear();
    for (std::size_t u = 0; u < n; ++u) {
      const Op o = ops[u];
      if (o.is_nop()) {
        access[u] = kNoWrittenLoc;
        continue;
      }
      Cached& hit = cache[o.loc % cache.size()];
      if (hit.key == kNoWrittenLoc || hit.loc != o.loc) {
        const auto [it, fresh] = key_of.try_emplace(
            o.loc, static_cast<std::uint32_t>(found.size()));
        if (fresh) {
          found.push_back(o.loc);
          writes.push_back(0);
        }
        hit = Cached{o.loc, it->second};
      }
      const std::uint32_t is_write = o.is_write() ? 1u : 0u;
      access[u] = hit.key << 1 | is_write;
      writes[hit.key] += is_write;
    }
  }
  std::vector<std::uint32_t> order;  // written keys in location order
  for (std::uint32_t k = 0; k < writes.size(); ++k)
    if (writes[k] != 0) order.push_back(k);
  if (!dense)
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return found[a] < found[b];
              });

  // The written locations become slots 0.. in location order.
  std::vector<std::uint32_t> slot_of(writes.size(), kNoWrittenLoc);
  locs_.resize(order.size());
  wri_head_.assign(order.size() + 1, 0);
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    const std::uint32_t k = order[i];
    slot_of[k] = i;
    locs_[i] = dense ? k : found[k];
    wri_head_[i + 1] = wri_head_[i] + writes[k];
  }

  // Pass 2: keys become slots.
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint32_t a = access[u];
    if (a == kNoWrittenLoc) continue;
    const std::uint32_t slot = slot_of[a >> 1];
    access[u] = slot == kNoWrittenLoc ? kNoWrittenLoc : slot << 1 | (a & 1u);
  }
}

void LocationIndex::count_accessors() {
  acc_head_.assign(size() + 1, 0);
  for (const std::uint32_t a : access_)
    if (a != kNoWrittenLoc) ++acc_head_[(a >> 1) + 1];
  std::partial_sum(acc_head_.begin(), acc_head_.end(), acc_head_.begin());
  acc_.resize(acc_head_.back());
}

std::size_t LocationIndex::table_bytes() const noexcept {
  return (locs_.capacity() + access_.capacity() + wri_head_.capacity()) *
         sizeof(std::uint32_t);
}

std::size_t LocationIndex::csr_bytes() const noexcept {
  return (wri_.capacity() + acc_.capacity()) * sizeof(NodeId) +
         acc_head_.capacity() * sizeof(std::uint32_t);
}

}  // namespace ccmm
