#include "analyze/race_oracle.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <climits>
#include <functional>
#include <numeric>
#include <span>

#include "dag/sweep.hpp"
#include "trace/loc_kernel.hpp"
#include "util/numa.hpp"
#include "util/str.hpp"

namespace ccmm::analyze {
namespace {

using Clock = std::chrono::steady_clock;

double millis_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

bool race_less(const Race& x, const Race& y) {
  if (x.a != y.a) return x.a < y.a;
  if (x.b != y.b) return x.b < y.b;
  return x.loc < y.loc;
}

Race make_race(const Computation& c, NodeId x, NodeId y, Location l) {
  const bool ww = c.op(x).is_write() && c.op(y).is_write();
  if (x > y) std::swap(x, y);
  return Race{x, y, l, ww ? RaceKind::kWriteWrite : RaceKind::kReadWrite};
}

/// Phase 1 for one location: prove the total order or return a race.
///
/// With accessors sorted by topological rank, the location is race-free
/// iff the writers form a chain w₁ ≺ … ≺ w_k and every reader sits
/// between its rank-neighbouring writers (transitivity covers all the
/// other writer pairs). Any failed query (x, y) has rank(x) < rank(y),
/// and ranks respect the dag, so y ≺ x is impossible — the failure IS
/// dag-incomparability, a concrete race, with no second probe.
/// `rank` is nullptr when node ids are already a topological order.
std::optional<Race> location_first_race(const Computation& c,
                                        const PrecedenceOracle& oracle,
                                        Location loc,
                                        std::span<const NodeId> writers,
                                        std::span<const NodeId> accessors,
                                        const std::vector<std::uint32_t>* rank,
                                        std::size_t& queries) {
  std::vector<NodeId> wbuf;
  std::vector<NodeId> abuf;
  if (rank != nullptr) {
    wbuf.assign(writers.begin(), writers.end());
    abuf.assign(accessors.begin(), accessors.end());
    const auto by_rank = [&](NodeId x, NodeId y) {
      return (*rank)[x] < (*rank)[y];
    };
    std::sort(wbuf.begin(), wbuf.end(), by_rank);
    std::sort(abuf.begin(), abuf.end(), by_rank);
    writers = wbuf;
    accessors = abuf;
  }
  for (std::size_t i = 0; i + 1 < writers.size(); ++i) {
    ++queries;
    if (!oracle.precedes(writers[i], writers[i + 1]))
      return make_race(c, writers[i], writers[i + 1], loc);
  }
  std::size_t j = 0;  // writers at-or-before the current accessor
  for (const NodeId v : accessors) {
    if (c.op(v).is_write()) {
      ++j;
      continue;
    }
    if (j > 0) {
      ++queries;
      if (!oracle.precedes(writers[j - 1], v))
        return make_race(c, writers[j - 1], v, loc);
    }
    if (j < writers.size()) {
      ++queries;
      if (!oracle.precedes(v, writers[j]))
        return make_race(c, v, writers[j], loc);
    }
  }
  return std::nullopt;
}

/// Shared scan context: the location-grouping arena, the indices of
/// groups that can race at all, the topological rank view, and the
/// oracle.
struct ScanSetup {
  LocationGroups groups;
  std::vector<std::uint32_t> live;  // groups with a writer + ≥2 accessors
  std::vector<NodeId> topo;
  std::vector<std::uint32_t> rank;  // empty when ids are topological
  std::unique_ptr<PrecedenceOracle> oracle;
};

ScanSetup scan_setup(const Computation& c, const RaceScanOptions& options,
                     RaceScanStats& st) {
  ScanSetup s;
  s.groups = group_location_accesses(c);
  st.groups_bytes = s.groups.memory_bytes();
  for (std::size_t i = 0; i < s.groups.size(); ++i)
    if (!s.groups.writers(i).empty() && s.groups.accessors(i).size() >= 2)
      s.live.push_back(static_cast<std::uint32_t>(i));
  st.locations = s.live.size();
  if (s.live.empty()) return s;

  const std::size_t n = c.node_count();
  if (c.dag().ids_topological()) {
    s.topo.resize(n);
    std::iota(s.topo.begin(), s.topo.end(), NodeId{0});
  } else {
    s.topo = c.dag().topological_order();
    s.rank.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      s.rank[s.topo[i]] = static_cast<std::uint32_t>(i);
  }

  const auto t_oracle = Clock::now();
  s.oracle = make_oracle(c.dag(), c.sp_structure().get(), options.oracle);
  st.oracle_kind = s.oracle->kind();
  st.oracle_memory_bytes = s.oracle->memory_bytes();
  st.oracle_build_millis = millis_since(t_oracle);
  return s;
}

void run_sharded(const RaceScanOptions& options, std::size_t ntasks,
                 const std::function<void(std::size_t)>& run_one) {
  ThreadPool& pool = options.pool != nullptr ? *options.pool : global_pool();
  if (options.parallel && ntasks > 1 && pool.size() > 1) {
    // On multi-node boxes, pin each shard to a NUMA node for its whole
    // run so its sweep arena is first-touched (and re-read every
    // chunk) on the node executing it. Single-node topologies skip the
    // binding entirely.
    const NumaTopology& numa = numa_topology();
    if (numa.multi_node) {
      const std::vector<std::size_t> plan =
          plan_shard_placement(ntasks, numa);
      pool.parallel_for(ntasks, [&](std::size_t i) {
        const NumaBinding bind(numa, plan[i]);
        run_one(i);
      });
    } else {
      pool.parallel_for(ntasks, run_one);
    }
  } else {
    for (std::size_t i = 0; i < ntasks; ++i) run_one(i);
  }
}

/// One 256-anchor sweep chunk: anchors[lo, hi) sorted by (location,
/// node id); anchor i holds bit i−lo of the W=4 mask rows.
struct MaskChunk {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

struct Anchor {
  NodeId node = kBottom;
  std::uint32_t group = 0;  // index into the mask-location list
};

constexpr std::uint64_t low_bits(std::size_t k) {
  return k >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
}

/// Bits of word `w` covered by the global bit range [lo, hi). Only
/// meaningful for words overlapping the range.
constexpr std::uint64_t range_mask_word(std::size_t lo, std::size_t hi,
                                        std::size_t w) {
  const std::size_t base = w * 64;
  const std::size_t a = lo > base ? lo - base : 0;
  const std::size_t b = hi > base ? hi - base : 0;
  return (b >= 64 ? ~std::uint64_t{0} : low_bits(b)) & ~low_bits(a);
}

/// Races-remaining budget shared by the enumeration tasks. Signed and
/// decremented with plain fetch_sub: a transient overshoot below zero
/// is fine (the merge step truncates exactly), underflow would need
/// ~2⁶³ decrements.
using SoftCap = std::atomic<long long>;

/// The per-shard sweep arena: fwd/bwd mask rows (n × kSweepWords each),
/// reused across every chunk the shard runs.
struct MaskScratch {
  std::vector<std::uint64_t> fwd;
  std::vector<std::uint64_t> bwd;

  [[nodiscard]] std::size_t bytes() const noexcept {
    return (fwd.capacity() + bwd.capacity()) * sizeof(std::uint64_t);
  }
};

void scan_mask_chunk(const Computation& c, const ScanSetup& s, SimdLevel simd,
                     const std::vector<std::uint32_t>& masky,
                     const std::vector<Anchor>& anchors, const MaskChunk& ch,
                     MaskScratch& scratch, SoftCap& soft_cap,
                     std::vector<Race>& out) {
  // A hit race cap skips the whole chunk — the sweeps are the expensive
  // part, and once truncation is certain their output is unwanted.
  if (soft_cap.load(std::memory_order_relaxed) <= 0) return;

  const std::size_t n = c.node_count();
  const std::size_t width = ch.hi - ch.lo;

  // Preset each anchor's bit straight into its own row (reflexive
  // reach): no member table, no per-node binary search in the sweep.
  scratch.fwd.assign(n * kSweepWords, 0);
  scratch.bwd.assign(n * kSweepWords, 0);
  for (std::size_t i = 0; i < width; ++i) {
    const NodeId u = anchors[ch.lo + i].node;
    const std::size_t at = u * kSweepWords + (i >> 6);
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    scratch.fwd[at] |= bit;
    scratch.bwd[at] |= bit;
  }
  sweep_forward_w4(c.dag(), s.topo, scratch.fwd.data(), simd);
  sweep_backward_w4(c.dag(), s.topo, scratch.bwd.data(), simd);

  // Walk the chunk's per-location slices (anchors of one location are
  // consecutive and id-ascending).
  for (std::size_t sb = 0; sb < width;) {
    std::size_t e = sb + 1;
    while (e < width && anchors[ch.lo + e].group == anchors[ch.lo + sb].group)
      ++e;
    const std::uint32_t gi = masky[anchors[ch.lo + sb].group];
    const Location loc = s.groups.locs[gi];
    for (const NodeId v : s.groups.accessors(gi)) {
      std::size_t hi_bit = e;
      if (c.op(v).is_write()) {
        // Writer/writer dedupe across chunks and slices: v emits only
        // partners with a smaller node id; the partner's own scan (or
        // chunk) covers the other order.
        std::size_t lt = sb;
        std::size_t h = e;
        while (lt < h) {
          const std::size_t mid = (lt + h) / 2;
          if (anchors[ch.lo + mid].node < v)
            lt = mid + 1;
          else
            h = mid;
        }
        hi_bit = lt;
        if (hi_bit == sb) continue;
      }
      const std::uint64_t* fv = &scratch.fwd[v * kSweepWords];
      const std::uint64_t* bv = &scratch.bwd[v * kSweepWords];
      long long emitted = 0;
      for (std::size_t w = sb >> 6; w < (hi_bit + 63) >> 6; ++w) {
        std::uint64_t cand =
            range_mask_word(sb, hi_bit, w) & ~(fv[w] | bv[w]);
        while (cand != 0) {
          if (emitted == 0 &&
              soft_cap.load(std::memory_order_relaxed) <= 0)
            return;
          const std::size_t bit =
              w * 64 + static_cast<std::size_t>(std::countr_zero(cand));
          out.push_back(make_race(c, v, anchors[ch.lo + bit].node, loc));
          ++emitted;
          cand &= cand - 1;
        }
      }
      if (emitted != 0)
        soft_cap.fetch_sub(emitted, std::memory_order_relaxed);
    }
    sb = e;
  }
}

void scan_direct_location(const Computation& c, const PrecedenceOracle& oracle,
                          Location loc, std::span<const NodeId> nodes,
                          SoftCap& soft_cap, std::size_t& queries,
                          std::vector<Race>& out) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (soft_cap.load(std::memory_order_relaxed) <= 0) return;
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const NodeId a = nodes[i];
      const NodeId b = nodes[j];
      const bool aw = c.op(a).is_write();
      const bool bw = c.op(b).is_write();
      if (!aw && !bw) continue;
      ++queries;
      if (!oracle.incomparable(a, b)) continue;
      out.push_back(
          {a, b, loc, aw && bw ? RaceKind::kWriteWrite : RaceKind::kReadWrite});
      soft_cap.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace

std::vector<Race> find_races_oracle(const Computation& c,
                                    const RaceScanOptions& options,
                                    RaceScanStats* stats) {
  const auto t0 = Clock::now();
  RaceScanStats st;
  ScanSetup s = scan_setup(c, options, st);
  const SimdLevel simd = options.simd.value_or(active_simd_level());
  st.simd = simd_level_name(simd);
  std::vector<Race> races;
  if (!s.live.empty()) {
    const std::vector<std::uint32_t>* rank =
        s.rank.empty() ? nullptr : &s.rank;

    // Phase 1: the per-location total-order proof.
    std::vector<char> racy(s.live.size(), 0);
    std::vector<std::size_t> queries(s.live.size(), 0);
    run_sharded(options, s.live.size(), [&](std::size_t i) {
      const std::uint32_t g = s.live[i];
      racy[i] = location_first_race(c, *s.oracle, s.groups.locs[g],
                                    s.groups.writers(g), s.groups.accessors(g),
                                    rank, queries[i])
                    .has_value()
                    ? 1
                    : 0;
    });
    for (const std::size_t q : queries) st.oracle_queries += q;

    // Phases 2+3: enumerate the racy locations' candidate pairs.
    std::vector<std::uint32_t> direct;
    std::vector<std::uint32_t> masky;
    for (std::size_t i = 0; i < s.live.size(); ++i) {
      if (racy[i] == 0) continue;
      const std::uint32_t g = s.live[i];
      const std::size_t pairs =
          s.groups.writers(g).size() * (s.groups.accessors(g).size() - 1);
      (pairs <= options.direct_pair_threshold ? direct : masky).push_back(g);
    }
    st.racy_locations = direct.size() + masky.size();
    st.direct_locations = direct.size();
    st.mask_locations = masky.size();

    std::vector<Anchor> anchors;
    for (std::size_t gi = 0; gi < masky.size(); ++gi)
      for (const NodeId w : s.groups.writers(masky[gi]))
        anchors.push_back({w, static_cast<std::uint32_t>(gi)});
    const std::size_t nchunks = (anchors.size() + kSweepBits - 1) / kSweepBits;
    st.mask_groups = nchunks;

    // The sweeps walk the dag's own edge arrays. Chunks are packed onto
    // O(threads) shards that each own one fwd/bwd arena for their whole
    // run.
    ThreadPool& pool = options.pool != nullptr ? *options.pool : global_pool();
    const std::size_t nshards =
        (!options.parallel || pool.size() <= 1)
            ? (nchunks > 0 ? 1 : 0)
            : std::min(nchunks, pool.size() * 2);

    const std::size_t ntasks = direct.size() + nshards;
    std::vector<std::vector<Race>> found(ntasks);
    std::vector<std::size_t> equeries(ntasks, 0);
    std::vector<std::size_t> shard_bytes(nshards, 0);
    SoftCap soft_cap{static_cast<long long>(
        std::min<std::size_t>(options.max_races, LLONG_MAX))};
    run_sharded(options, ntasks, [&](std::size_t i) {
      if (i < direct.size()) {
        const std::uint32_t g = direct[i];
        scan_direct_location(c, *s.oracle, s.groups.locs[g],
                             s.groups.accessors(g), soft_cap, equeries[i],
                             found[i]);
      } else {
        const std::size_t sh = i - direct.size();
        MaskScratch scratch;
        for (std::size_t k = sh * nchunks / nshards;
             k < (sh + 1) * nchunks / nshards; ++k) {
          const MaskChunk ch{
              k * kSweepBits,
              std::min(anchors.size(), (k + 1) * kSweepBits)};
          scan_mask_chunk(c, s, simd, masky, anchors, ch, scratch,
                          soft_cap, found[i]);
        }
        shard_bytes[sh] = scratch.bytes();
      }
    });
    for (const std::size_t q : equeries) st.oracle_queries += q;
    if (!shard_bytes.empty())
      st.scratch_peak_bytes =
          *std::max_element(shard_bytes.begin(), shard_bytes.end());

    std::size_t total = 0;
    for (const auto& f : found) total += f.size();
    races.reserve(total);
    for (auto& f : found)
      races.insert(races.end(), f.begin(), f.end());
    std::sort(races.begin(), races.end(), race_less);
    races.erase(std::unique(races.begin(), races.end()), races.end());
    if (soft_cap.load(std::memory_order_relaxed) <= 0 ||
        races.size() > options.max_races) {
      st.truncated = true;
      if (races.size() > options.max_races) races.resize(options.max_races);
    }
  }
  st.races = races.size();
  st.scan_millis = millis_since(t0);
  if (stats != nullptr) *stats = std::move(st);
  return races;
}

std::optional<Race> find_first_race(const Computation& c,
                                    const RaceScanOptions& options,
                                    RaceScanStats* stats) {
  const auto t0 = Clock::now();
  RaceScanStats st;
  ScanSetup s = scan_setup(c, options, st);
  std::optional<Race> best;
  if (!s.live.empty()) {
    const std::vector<std::uint32_t>* rank =
        s.rank.empty() ? nullptr : &s.rank;
    std::vector<std::optional<Race>> first(s.live.size());
    std::vector<std::size_t> queries(s.live.size(), 0);
    run_sharded(options, s.live.size(), [&](std::size_t i) {
      const std::uint32_t g = s.live[i];
      first[i] = location_first_race(c, *s.oracle, s.groups.locs[g],
                                     s.groups.writers(g),
                                     s.groups.accessors(g), rank, queries[i]);
    });
    for (std::size_t i = 0; i < s.live.size(); ++i) {
      st.oracle_queries += queries[i];
      if (!first[i].has_value()) continue;
      ++st.racy_locations;
      if (!best.has_value() || race_less(*first[i], *best)) best = first[i];
    }
  }
  st.races = best.has_value() ? 1 : 0;
  st.scan_millis = millis_since(t0);
  if (stats != nullptr) *stats = std::move(st);
  return best;
}

bool has_race_oracle(const Computation& c, const RaceScanOptions& options) {
  RaceScanStats st;
  ScanSetup s = scan_setup(c, options, st);
  if (s.live.empty()) return false;
  const std::vector<std::uint32_t>* rank = s.rank.empty() ? nullptr : &s.rank;
  std::atomic<bool> found{false};
  run_sharded(options, s.live.size(), [&](std::size_t i) {
    if (found.load(std::memory_order_relaxed)) return;
    std::size_t q = 0;
    const std::uint32_t g = s.live[i];
    if (location_first_race(c, *s.oracle, s.groups.locs[g],
                            s.groups.writers(g), s.groups.accessors(g), rank,
                            q)
            .has_value())
      found.store(true, std::memory_order_relaxed);
  });
  return found.load(std::memory_order_relaxed);
}

std::string RaceScanStats::to_string() const {
  std::string out = format(
      "oracle: %s (%zu bytes, built in %.2f ms)\n"
      "scan: %.2f ms, %zu locations (%zu racy: %zu direct, %zu via %zu "
      "mask chunks), %zu oracle queries\n",
      oracle_kind.c_str(), oracle_memory_bytes, oracle_build_millis,
      scan_millis, locations, racy_locations, direct_locations, mask_locations,
      mask_groups, oracle_queries);
  if (!simd.empty())
    out += format("data plane: %s kernels, groups %zu B, "
                  "sweep scratch peak %zu B\n",
                  simd.c_str(), groups_bytes, scratch_peak_bytes);
  out += format("races: %zu%s\n", races, truncated ? " (cap hit)" : "");
  return out;
}

}  // namespace ccmm::analyze
