// The one location index (core/location_index.hpp) against the
// computation's own definitions: written_locations(), writers(),
// readers() and accessed_locations(). The checking session, the race
// engines and the memory lints all read the index, and their
// differentials compare engines that share it, so it is pinned here on
// its own: on the exhaustive ≤4-node, 2-location universe, on fork/join
// programs, and on location ids that collide in its direct-mapped cache
// or leave its id-indexed table, where SP-bags, which keys its shadows
// by slot, must still find the pairwise race set.
#include "core/location_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "analyze/sp_bags.hpp"
#include "enumerate/universe.hpp"
#include "location_ids.hpp"
#include "proc/random_program.hpp"
#include "trace/race.hpp"
#include "util/rng.hpp"

namespace ccmm {
namespace {

std::vector<NodeId> to_vector(std::span<const NodeId> s) {
  return {s.begin(), s.end()};
}

/// The index of `c` — node table, counts and both slices — equals what
/// the definitions give, and every slice is id-ascending.
void expect_matches_definitions(const Computation& c, const std::string& ctx) {
  LocationIndex index(c);
  EXPECT_EQ(index.csr_bytes(), 0u) << ctx;
  index.build_csr(true);
  const std::vector<Location> written = c.written_locations();
  ASSERT_EQ(index.locations(), written) << ctx;
  for (std::size_t i = 0; i < index.size(); ++i) {
    const Location l = index.location(i);
    const std::vector<NodeId> writers = c.writers(l);
    std::vector<NodeId> accessors = c.readers(l);
    accessors.insert(accessors.end(), writers.begin(), writers.end());
    std::sort(accessors.begin(), accessors.end());
    EXPECT_EQ(index.writer_count(i), writers.size()) << ctx << " loc " << l;
    EXPECT_EQ(index.accessor_count(i), accessors.size())
        << ctx << " loc " << l;
    EXPECT_EQ(to_vector(index.writers(i)), writers) << ctx << " loc " << l;
    EXPECT_EQ(to_vector(index.accessors(i)), accessors)
        << ctx << " loc " << l;
    EXPECT_TRUE(std::adjacent_find(index.accessors(i).begin(),
                                   index.accessors(i).end(),
                                   std::greater_equal<>()) ==
                index.accessors(i).end())
        << ctx << " loc " << l;
  }
  // Nops and the accesses of never-written locations get the sentinel,
  // every other node its slot and whether it writes.
  ASSERT_EQ(index.table().size(), c.node_count()) << ctx;
  std::vector<Location> unslotted;
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    const auto at = std::lower_bound(written.begin(), written.end(), o.loc);
    if (o.is_nop() || at == written.end() || *at != o.loc) {
      EXPECT_EQ(index[u], kNoWrittenLoc) << ctx << " node " << u;
      if (!o.is_nop()) unslotted.push_back(o.loc);
      continue;
    }
    const auto slot = static_cast<std::uint32_t>(at - written.begin());
    EXPECT_EQ(index[u], slot << 1 | (o.is_write() ? 1u : 0u))
        << ctx << " node " << u;
  }
  // The locations left without a slot are exactly the read-only ones.
  std::sort(unslotted.begin(), unslotted.end());
  unslotted.erase(std::unique(unslotted.begin(), unslotted.end()),
                  unslotted.end());
  const std::vector<Location> accessed = c.accessed_locations();
  std::vector<Location> read_only;
  std::set_difference(accessed.begin(), accessed.end(), written.begin(),
                      written.end(), std::back_inserter(read_only));
  EXPECT_EQ(unslotted, read_only) << ctx;
}

Computation random_program(std::size_t ops, std::size_t locations, Rng& rng) {
  proc::RandomCilkOptions opt;
  opt.target_ops = ops;
  opt.nlocations = locations;
  return proc::random_cilk(opt, rng);
}

TEST(LocationIndex, MatchesTheDefinitionsOnTheUniverse) {
  UniverseSpec spec;
  spec.max_nodes = 4;
  spec.nlocations = 2;
  std::size_t visited = 0;
  for_each_computation(spec, [&](const Computation& c) {
    expect_matches_definitions(c, "universe #" + std::to_string(visited++));
    return !::testing::Test::HasFailure();
  });
  EXPECT_EQ(visited, computation_count(spec));
}

TEST(LocationIndex, MatchesTheDefinitionsOnCilkPrograms) {
  // Up to 2,000 locations on up to 3,000 ops: ids fill the id-indexed
  // table well past the cache's 1024 entries.
  Rng rng(0x10CA7);
  for (const std::size_t locations : {1, 3, 16, 300, 2000}) {
    for (int trial = 0; trial < 4; ++trial) {
      const Computation c =
          random_program(50 + rng.below(3000), locations, rng);
      expect_matches_definitions(c, std::to_string(locations) +
                                        " locations, trial " +
                                        std::to_string(trial));
    }
  }
}

TEST(LocationIndex, CacheCollidingIdsMatchTheDefinitions) {
  // l, l + 1024 and l + 2048 interleaved, with and without 0xFFFFFFFF,
  // a read-only and a write-only location: on small programs the large
  // ids go through the cache and the hash map, on large ones they all
  // fit the id-indexed table unless 0xFFFFFFFF is there.
  const std::span<const Location> all = test::kCollidingIds;
  const std::span<const Location> small = all.first(all.size() - 1);
  Rng rng(0xC0111DE);
  for (const std::size_t ops : {12, 40, 3000}) {
    for (const auto ids : {all, small}) {
      const std::string ctx = std::to_string(ops) + " ops, " +
                              std::to_string(ids.size()) + " ids";
      const Computation c =
          test::on_colliding_ids(random_program(ops, 9, rng), ids);
      expect_matches_definitions(c, ctx);
      // SP-bags keys its shadows by the index's slots, and its early exit
      // by id or, past n + 1024, by slot; both must see the pairwise
      // race set.
      const std::vector<Race> races = find_races_pairwise(c);
      EXPECT_EQ(analyze::find_races_sp(c), races) << ctx;
      EXPECT_EQ(analyze::has_race_sp(c), !races.empty()) << ctx;
    }
  }
  // By hand: a chain cycling through 0, 1024, 2048 and 0xFFFFFFFF, with
  // reads of 3072 (never written) and writes of 3079 (never read).
  ComputationBuilder b;
  std::vector<NodeId> prev;
  const Location cycle[] = {0, 1024, 2048, 0xFFFFFFFFu};
  for (std::size_t k = 0; k < 24; ++k) {
    const Location l = cycle[k % 4];
    NodeId u = 0;
    switch (k % 6) {
      case 0:
        u = b.read(test::kReadOnlyId, prev);
        break;
      case 1:
        u = b.write(test::kWriteOnlyId, prev);
        break;
      case 2:
        u = b.nop(prev);
        break;
      case 3:
        u = b.read(l, prev);
        break;
      default:
        u = b.write(l, prev);
    }
    prev = {u};
  }
  expect_matches_definitions(std::move(b).build(), "hand-built chain");
}

TEST(LocationIndex, AllNopAndEmptyComputations) {
  expect_matches_definitions(Computation(), "empty");
  ComputationBuilder b;
  for (int k = 0; k < 5; ++k) b.nop();
  const Computation nops = std::move(b).build();
  expect_matches_definitions(nops, "all nops");
  const LocationIndex index(nops);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.table(), std::vector<std::uint32_t>(5, kNoWrittenLoc));
}

TEST(LocationIndex, SlicesAreBuiltOnDemand) {
  // The writer slices alone first (what the checking session builds),
  // then the accessors; the writers stay as they were.
  Rng rng(0x5111CE);
  const Computation c = test::on_colliding_ids(random_program(500, 9, rng));
  LocationIndex index(c);
  const std::size_t table = index.table_bytes();
  EXPECT_EQ(index.csr_bytes(), 0u);
  index.build_csr(false);
  std::size_t writers = 0;
  for (std::size_t i = 0; i < index.size(); ++i) {
    EXPECT_EQ(to_vector(index.writers(i)), c.writers(index.location(i)));
    writers += index.writer_count(i);
  }
  EXPECT_EQ(index.csr_bytes(), writers * sizeof(NodeId));
  const NodeId* before = index.writers(0).data();
  index.build_csr(true);
  EXPECT_EQ(index.writers(0).data(), before);
  EXPECT_GT(index.csr_bytes(), writers * sizeof(NodeId));
  EXPECT_EQ(index.table_bytes(), table);
  expect_matches_definitions(c, "colliding ids, 500 ops");
}

}  // namespace
}  // namespace ccmm
