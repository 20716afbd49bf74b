// tests/location_ids.hpp — location ids that stress the location index
// (core/location_index.hpp): ids sharing a slot of its 1024-entry
// direct-mapped cache, ids 0 and 0xFFFFFFFF, ids past its id-indexed
// table, and locations only read or only written.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "core/computation.hpp"

namespace ccmm::test {

/// l, l + 1024 and l + 2048 for l = 0 and l = 7, and the largest id.
inline constexpr std::array<Location, 7> kCollidingIds = {
    0, 1024, 2048, 7, 1031, 2055, 0xFFFFFFFFu};
/// A location no node writes and one no node reads; both collide too.
inline constexpr Location kReadOnlyId = 3072;
inline constexpr Location kWriteOnlyId = 3079;

/// `c` with its locations renamed: location k becomes ids[k % size],
/// every fifth read reads kReadOnlyId and every seventh write writes
/// kWriteOnlyId. The dag and the SP parse stay.
inline Computation on_colliding_ids(
    const Computation& c, std::span<const Location> ids = kCollidingIds) {
  std::vector<Op> ops = c.ops();
  std::size_t reads = 0;
  std::size_t writes = 0;
  for (Op& o : ops) {
    if (o.is_nop()) continue;
    o.loc = ids[o.loc % ids.size()];
    if (o.is_read() && ++reads % 5 == 0) o.loc = kReadOnlyId;
    if (o.is_write() && ++writes % 7 == 0) o.loc = kWriteOnlyId;
  }
  Computation out(c.dag(), std::move(ops));
  out.set_sp_structure(c.sp_structure());
  return out;
}

}  // namespace ccmm::test
