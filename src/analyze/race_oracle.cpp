#include "analyze/race_oracle.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <climits>
#include <functional>
#include <numeric>
#include <span>

#include "core/location_index.hpp"
#include "dag/sweep.hpp"
#include "util/numa.hpp"
#include "util/str.hpp"

namespace ccmm::analyze {
namespace {

using Clock = std::chrono::steady_clock;

double millis_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Shared scan context: the location index with its slices, the slots
/// that can race at all, the topological rank view, and the oracle.
struct ScanSetup {
  LocationIndex index;
  std::vector<std::uint32_t> live;  // slots with ≥ 2 accessors
  std::vector<NodeId> topo;
  std::vector<std::uint32_t> rank;  // empty when ids are topological
  std::unique_ptr<PrecedenceOracle> oracle;
};

/// Phase 1 for slot g: prove the total order or return a race.
///
/// With accessors sorted by topological rank, the location is race-free
/// iff the writers form a chain w₁ ≺ … ≺ w_k and every reader sits
/// between its rank-neighbouring writers (transitivity covers all the
/// other writer pairs). Any failed query (x, y) has rank(x) < rank(y),
/// and ranks respect the dag, so y ≺ x is impossible — the failure IS
/// dag-incomparability, a concrete race, with no second probe.
std::optional<Race> location_first_race(const Computation& c,
                                        const ScanSetup& s, std::uint32_t g,
                                        std::size_t& queries) {
  const PrecedenceOracle& oracle = *s.oracle;
  const Location loc = s.index.location(g);
  std::span<const NodeId> writers = s.index.writers(g);
  std::span<const NodeId> accessors = s.index.accessors(g);
  std::vector<NodeId> wbuf;
  std::vector<NodeId> abuf;
  if (!s.rank.empty()) {
    wbuf.assign(writers.begin(), writers.end());
    abuf.assign(accessors.begin(), accessors.end());
    const auto by_rank = [&](NodeId x, NodeId y) {
      return s.rank[x] < s.rank[y];
    };
    std::sort(wbuf.begin(), wbuf.end(), by_rank);
    std::sort(abuf.begin(), abuf.end(), by_rank);
    writers = wbuf;
    accessors = abuf;
  }
  for (std::size_t i = 0; i + 1 < writers.size(); ++i) {
    ++queries;
    if (!oracle.precedes(writers[i], writers[i + 1]))
      return Race::between(c, writers[i], writers[i + 1], loc);
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
        return Race::between(c, writers[j - 1], v, loc);
    }
    if (j < writers.size()) {
      ++queries;
      if (!oracle.precedes(v, writers[j]))
        return Race::between(c, v, writers[j], loc);
    }
  }
  return std::nullopt;
}

ScanSetup scan_setup(const Computation& c, const RaceScanOptions& options,
                     RaceScanStats& st) {
  ScanSetup s;
  s.index = LocationIndex(c);
  s.index.build_csr(true);
  s.index.drop_table();  // the scan reads slices and counts only
  st.groups_bytes = s.index.table_bytes() + s.index.csr_bytes();
  for (std::size_t i = 0; i < s.index.size(); ++i)
    if (s.index.accessor_count(i) >= 2)
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

/// Phases 2 and 3's split of the racy locations: the direct groups, the
/// mask groups with their writers as anchors (by group, then id), and
/// the chunks packed onto O(threads) shards that each own one fwd/bwd
/// arena for their whole run.
struct EnumerationPlan {
  std::vector<std::uint32_t> direct;
  std::vector<std::uint32_t> masky;
  std::vector<Anchor> anchors;
  std::size_t nchunks = 0;
  std::size_t nshards = 0;

  [[nodiscard]] std::size_t tasks() const { return direct.size() + nshards; }
  [[nodiscard]] MaskChunk chunk(std::size_t k) const {
    return {k * kSweepBits, std::min(anchors.size(), (k + 1) * kSweepBits)};
  }
};

EnumerationPlan plan_enumeration(const ScanSetup& s,
                                 const std::vector<char>& racy,
                                 const RaceScanOptions& options,
                                 RaceScanStats& st) {
  EnumerationPlan p;
  for (std::size_t i = 0; i < s.live.size(); ++i) {
    if (racy[i] == 0) continue;
    const std::uint32_t g = s.live[i];
    const std::size_t pairs =
        s.index.writer_count(g) * (s.index.accessor_count(g) - 1);
    (pairs <= options.direct_pair_threshold ? p.direct : p.masky).push_back(g);
  }
  st.racy_locations = p.direct.size() + p.masky.size();
  st.direct_locations = p.direct.size();
  st.mask_locations = p.masky.size();
  for (std::size_t gi = 0; gi < p.masky.size(); ++gi)
    for (const NodeId w : s.index.writers(p.masky[gi]))
      p.anchors.push_back({w, static_cast<std::uint32_t>(gi)});
  p.nchunks = (p.anchors.size() + kSweepBits - 1) / kSweepBits;
  st.mask_groups = p.nchunks;
  ThreadPool& pool = options.pool != nullptr ? *options.pool : global_pool();
  p.nshards = (!options.parallel || pool.size() <= 1)
                  ? (p.nchunks > 0 ? 1 : 0)
                  : std::min(p.nchunks, pool.size() * 2);
  return p;
}

/// Accessor v's racing partners in one chunk: the anchors of bits
/// [lo, hi) that neither reach v nor are reached from it. Partners come
/// in ascending id order, and so do the races they form with v.
struct Partners {
  const std::uint64_t* fwd;
  const std::uint64_t* bwd;
  const Anchor* anchors;  // the chunk's first anchor
  std::size_t lo = 0;
  std::size_t hi = 0;

  [[nodiscard]] std::size_t first_word() const { return lo >> 6; }
  [[nodiscard]] std::size_t end_word() const { return (hi + 63) >> 6; }
  [[nodiscard]] std::uint64_t word(std::size_t w) const {
    return range_mask_word(lo, hi, w) & ~(fwd[w] | bwd[w]);
  }
  /// The anchor of word w's lowest set bit in `bits`.
  [[nodiscard]] NodeId lowest(std::size_t w, std::uint64_t bits) const {
    return anchors[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))]
        .node;
  }
};

/// One chunk's sweeps, then every accessor of the chunk's locations
/// with its partners. The sink's more() is polled before the sweeps
/// (false skips the chunk: the sweeps are the expensive part) and
/// visit(v, loc, partners) returning false abandons the chunk.
template <typename Sink>
void scan_mask_chunk(const Computation& c, const ScanSetup& s, SimdLevel simd,
                     const EnumerationPlan& p, const MaskChunk& ch,
                     MaskScratch& scratch, Sink& sink) {
  if (!sink.more()) return;

  const std::size_t n = c.node_count();
  const std::size_t width = ch.hi - ch.lo;
  const Anchor* anchors = p.anchors.data() + ch.lo;

  // Preset each anchor's bit straight into its own row (reflexive
  // reach): no member table, no per-node binary search in the sweep.
  scratch.fwd.assign(n * kSweepWords, 0);
  scratch.bwd.assign(n * kSweepWords, 0);
  for (std::size_t i = 0; i < width; ++i) {
    const NodeId u = anchors[i].node;
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
    while (e < width && anchors[e].group == anchors[sb].group) ++e;
    const std::uint32_t gi = p.masky[anchors[sb].group];
    const Location loc = s.index.location(gi);
    for (const NodeId v : s.index.accessors(gi)) {
      std::size_t hi_bit = e;
      if (c.op(v).is_write()) {
        // Writer/writer dedupe across chunks and slices: v takes only
        // partners with a smaller node id; the partner's own scan (or
        // chunk) covers the other order.
        hi_bit = static_cast<std::size_t>(
            std::partition_point(anchors + sb, anchors + e,
                                 [v](const Anchor& a) { return a.node < v; }) -
            anchors);
        if (hi_bit == sb) continue;
      }
      const Partners partners{&scratch.fwd[v * kSweepWords],
                              &scratch.bwd[v * kSweepWords], anchors, sb,
                              hi_bit};
      if (!sink.visit(v, loc, partners)) return;
    }
    sb = e;
  }
}

/// Phase 2 for one location: every candidate pair (i < j, one writer)
/// against the oracle, in (a, b) order. `more()` is polled once per row
/// and ends the walk when false; `emit(race)` takes each race.
template <typename More, typename Emit>
void scan_direct_location(const Computation& c, const PrecedenceOracle& oracle,
                          Location loc, std::span<const NodeId> nodes,
                          std::size_t& queries, More&& more, Emit&& emit) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!more()) return;
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const NodeId a = nodes[i];
      const NodeId b = nodes[j];
      const bool aw = c.op(a).is_write();
      const bool bw = c.op(b).is_write();
      if (!aw && !bw) continue;
      ++queries;
      if (!oracle.incomparable(a, b)) continue;
      emit(Race::between(c, a, b, loc));
    }
  }
}

/// Phase 1 over every live location: racy[i] iff live[i] races.
std::vector<char> find_racy_locations(const Computation& c,
                                      const ScanSetup& s,
                                      const RaceScanOptions& options,
                                      RaceScanStats& st) {
  std::vector<char> racy(s.live.size(), 0);
  std::vector<std::size_t> queries(s.live.size(), 0);
  run_sharded(options, s.live.size(), [&](std::size_t i) {
    racy[i] = location_first_race(c, s, s.live[i], queries[i]) ? 1 : 0;
  });
  for (const std::size_t q : queries) st.oracle_queries += q;
  return racy;
}

/// Run a plan's tasks: direct(i, g, queries) for each direct group,
/// then each shard's chunks through the sink make_sink(i) returns (i is
/// the task index, counted after the direct groups).
template <typename Direct, typename MakeSink>
void run_plan(const Computation& c, const ScanSetup& s,
              const EnumerationPlan& p, const RaceScanOptions& options,
              SimdLevel simd, RaceScanStats& st, Direct&& direct,
              MakeSink&& make_sink) {
  std::vector<std::size_t> queries(p.tasks(), 0);
  std::vector<std::size_t> shard_bytes(p.nshards, 0);
  run_sharded(options, p.tasks(), [&](std::size_t i) {
    if (i < p.direct.size()) {
      direct(i, p.direct[i], queries[i]);
      return;
    }
    const std::size_t sh = i - p.direct.size();
    auto& sink = make_sink(i);
    MaskScratch scratch;
    for (std::size_t k = sh * p.nchunks / p.nshards;
         k < (sh + 1) * p.nchunks / p.nshards; ++k)
      scan_mask_chunk(c, s, simd, p, p.chunk(k), scratch, sink);
    shard_bytes[sh] = scratch.bytes();
  });
  for (const std::size_t q : queries) st.oracle_queries += q;
  if (!shard_bytes.empty())
    st.scratch_peak_bytes =
        *std::max_element(shard_bytes.begin(), shard_bytes.end());
}

/// find_races_oracle's shard sink: every partner, until the shared cap
/// runs out.
struct CollectSink {
  const Computation* c = nullptr;
  SoftCap* soft_cap = nullptr;
  std::vector<Race>* out = nullptr;

  [[nodiscard]] bool more() const {
    return soft_cap->load(std::memory_order_relaxed) > 0;
  }
  bool visit(NodeId v, Location loc, const Partners& p) {
    long long emitted = 0;
    for (std::size_t w = p.first_word(); w < p.end_word(); ++w) {
      for (std::uint64_t cand = p.word(w); cand != 0; cand &= cand - 1) {
        if (emitted == 0 && !more()) return false;
        out->push_back(Race::between(*c, v, p.lowest(w, cand), loc));
        ++emitted;
      }
    }
    if (emitted != 0) soft_cap->fetch_sub(emitted, std::memory_order_relaxed);
    return true;
  }
};

/// summarize_races' shard sink: counts every partner by popcount and
/// keeps the k smallest races the shard has seen, a max-heap under
/// Race::less once full. v's races ascend with its partners, so the
/// first one the heap refuses ends v's materialization.
struct TallySink {
  const Computation* c = nullptr;
  std::size_t k = 0;
  std::size_t count = 0;
  std::vector<Race> heap;

  [[nodiscard]] static bool more() { return true; }
  bool visit(NodeId v, Location loc, const Partners& p) {
    bool taking = true;
    for (std::size_t w = p.first_word(); w < p.end_word(); ++w) {
      const std::uint64_t word = p.word(w);
      count += static_cast<std::size_t>(std::popcount(word));
      for (std::uint64_t cand = word; taking && cand != 0; cand &= cand - 1) {
        const Race r = Race::between(*c, v, p.lowest(w, cand), loc);
        taking = admits(r);
        if (taking) take(r);
      }
    }
    return true;
  }
  [[nodiscard]] bool admits(const Race& r) const {
    return heap.size() < k || (!heap.empty() && Race::less(r, heap.front()));
  }
  void take(const Race& r) {
    if (heap.size() == k) {
      std::pop_heap(heap.begin(), heap.end(), Race::less);
      heap.back() = r;
    } else {
      heap.push_back(r);
    }
    std::push_heap(heap.begin(), heap.end(), Race::less);
  }
};

/// A Fenwick tree over [0, m) folding with Op (a sum, max or min).
template <typename Op>
class Fenwick {
 public:
  Fenwick(std::size_t m, std::uint32_t identity)
      : tree_(m + 1, identity), identity_(identity) {}
  void add(std::size_t i, std::uint32_t v) {
    for (++i; i < tree_.size(); i += i & (~i + 1)) tree_[i] = Op{}(tree_[i], v);
  }
  /// The fold over [0, i).
  [[nodiscard]] std::uint32_t prefix(std::size_t i) const {
    std::uint32_t acc = identity_;
    for (; i > 0; i -= i & (~i + 1)) acc = Op{}(acc, tree_[i]);
    return acc;
  }
  [[nodiscard]] std::size_t bytes() const {
    return tree_.capacity() * sizeof(std::uint32_t);
  }

 private:
  std::vector<std::uint32_t> tree_;
  std::uint32_t identity_;
};

struct MaxOp {
  std::uint32_t operator()(std::uint32_t x, std::uint32_t y) const {
    return std::max(x, y);
  }
};
struct MinOp {
  std::uint32_t operator()(std::uint32_t x, std::uint32_t y) const {
    return std::min(x, y);
  }
};

/// One racy location under the SP-order oracle: the race count as the
/// E/H inversions among accessor pairs that include a writer, and the
/// location's k smallest races appended to `out` in (a, b) order.
/// `acc` is id-sorted; `bytes` receives the scratch the location used.
std::size_t order_location(const Computation& c, const SpOrderOracle& oracle,
                           Location loc, std::span<const NodeId> acc,
                           std::size_t k, std::vector<Race>& out,
                           std::size_t& bytes) {
  const std::size_t m = acc.size();
  // er[i] / hr[i]: accessor i's rank among the location's accessors in
  // the English / Hebrew extension. Accessor pairs disagree on the two
  // exactly when the nodes are incomparable.
  std::vector<std::uint32_t> by_e(m);
  std::vector<std::uint32_t> by_h(m);
  std::iota(by_e.begin(), by_e.end(), 0u);
  std::iota(by_h.begin(), by_h.end(), 0u);
  const std::vector<std::uint32_t>& english = oracle.english();
  const std::vector<std::uint32_t>& hebrew = oracle.hebrew();
  std::sort(by_e.begin(), by_e.end(), [&](std::uint32_t x, std::uint32_t y) {
    return english[acc[x]] < english[acc[y]];
  });
  std::sort(by_h.begin(), by_h.end(), [&](std::uint32_t x, std::uint32_t y) {
    return hebrew[acc[x]] < hebrew[acc[y]];
  });
  std::vector<std::uint32_t> er(m);
  std::vector<std::uint32_t> hr(m);
  std::vector<char> writes(m);
  for (std::size_t r = 0; r < m; ++r) {
    er[by_e[r]] = static_cast<std::uint32_t>(r);
    hr[by_h[r]] = static_cast<std::uint32_t>(r);
  }
  for (std::size_t i = 0; i < m; ++i) writes[i] = c.op(acc[i]).is_write();
  bytes = (4 * m) * sizeof(std::uint32_t) + m;

  // Count: walk the English order; an earlier accessor with a larger
  // Hebrew rank is incomparable with the current one. A writer races
  // with any such accessor, a reader only with such writers.
  std::size_t count = 0;
  {
    Fenwick<std::plus<>> all(m, 0);
    Fenwick<std::plus<>> wri(m, 0);
    std::size_t seen = 0;
    std::size_t seen_w = 0;
    for (const std::uint32_t i : by_e) {
      count += writes[i] != 0 ? seen - all.prefix(hr[i])
                              : seen_w - wri.prefix(hr[i]);
      all.add(hr[i], 1);
      ++seen;
      if (writes[i] != 0) {
        wri.add(hr[i], 1);
        ++seen_w;
      }
    }
    bytes += all.bytes() + wri.bytes();
  }
  if (k == 0 || count == 0) return count;

  // Flag: walking ids downward, accessor i races with a larger id iff a
  // seen accessor (any for a writer, a writer for a reader) comes
  // before it in E and after it in H, or after it in E and before it in
  // H. Prefix maxima of H rank over E rank answer the first, suffix
  // minima (a prefix over reversed E rank) the second; maxima store
  // hr + 1 so that 0 means none.
  std::vector<char> flagged(m, 0);
  {
    const auto none = static_cast<std::uint32_t>(m);
    Fenwick<MaxOp> max_all(m, 0);
    Fenwick<MaxOp> max_wri(m, 0);
    Fenwick<MinOp> min_all(m, none);
    Fenwick<MinOp> min_wri(m, none);
    for (std::size_t i = m; i-- > 0;) {
      const bool w = writes[i] != 0;
      const Fenwick<MaxOp>& before = w ? max_all : max_wri;
      const Fenwick<MinOp>& after = w ? min_all : min_wri;
      flagged[i] = before.prefix(er[i]) > hr[i] + 1 ||
                   after.prefix(m - 1 - er[i]) < hr[i];
      max_all.add(er[i], hr[i] + 1);
      min_all.add(m - 1 - er[i], hr[i]);
      if (w) {
        max_wri.add(er[i], hr[i] + 1);
        min_wri.add(m - 1 - er[i], hr[i]);
      }
    }
    bytes += m + max_all.bytes() + max_wri.bytes() + min_all.bytes() +
             min_wri.bytes();
  }

  // Take: ascending ids, partners only for flagged accessors (each
  // yields at least one race), until k races are out.
  std::size_t taken = 0;
  for (std::size_t i = 0; i < m && taken < k; ++i) {
    if (flagged[i] == 0) continue;
    const bool iw = writes[i] != 0;
    for (std::size_t j = i + 1; j < m && taken < k; ++j) {
      const bool jw = writes[j] != 0;
      if ((!iw && !jw) || (er[i] < er[j]) == (hr[i] < hr[j])) continue;
      out.push_back(Race::between(c, acc[i], acc[j], loc));
      ++taken;
    }
  }
  return count;
}

/// The k smallest of the per-task races, in order.
std::vector<Race> smallest_of(std::vector<std::vector<Race>>& found,
                              std::size_t k) {
  std::size_t total = 0;
  for (const auto& f : found) total += f.size();
  std::vector<Race> races;
  races.reserve(total);
  for (auto& f : found) {
    races.insert(races.end(), f.begin(), f.end());
    std::vector<Race>().swap(f);
  }
  std::sort(races.begin(), races.end(), Race::less);
  if (races.size() > k) races.resize(k);
  return races;
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
    const std::vector<char> racy = find_racy_locations(c, s, options, st);
    const EnumerationPlan p = plan_enumeration(s, racy, options, st);

    std::vector<std::vector<Race>> found(p.tasks());
    std::vector<CollectSink> sinks(p.tasks());
    SoftCap soft_cap{static_cast<long long>(
        std::min<std::size_t>(options.max_races, LLONG_MAX))};
    const auto more = [&] {
      return soft_cap.load(std::memory_order_relaxed) > 0;
    };
    run_plan(
        c, s, p, options, simd, st,
        [&](std::size_t i, std::uint32_t g, std::size_t& queries) {
          scan_direct_location(c, *s.oracle, s.index.location(g),
                               s.index.accessors(g), queries, more,
                               [&](const Race& r) {
                                 found[i].push_back(r);
                                 soft_cap.fetch_sub(1,
                                                    std::memory_order_relaxed);
                               });
        },
        [&](std::size_t i) -> CollectSink& {
          sinks[i] = {&c, &soft_cap, &found[i]};
          return sinks[i];
        });

    races = smallest_of(found, SIZE_MAX);
    races.erase(std::unique(races.begin(), races.end()), races.end());
    if (!more() || races.size() > options.max_races) {
      st.truncated = true;
      if (races.size() > options.max_races) races.resize(options.max_races);
    }
  }
  st.races = races.size();
  st.scan_millis = millis_since(t0);
  if (stats != nullptr) *stats = std::move(st);
  return races;
}

RaceSummary summarize_races(const Computation& c, std::size_t k,
                            const RaceScanOptions& options,
                            RaceScanStats* stats) {
  const auto t0 = Clock::now();
  RaceScanStats st;
  ScanSetup s = scan_setup(c, options, st);
  const SimdLevel simd = options.simd.value_or(active_simd_level());
  st.simd = simd_level_name(simd);
  RaceSummary summary;
  if (!s.live.empty()) {
    const std::vector<char> racy = find_racy_locations(c, s, options, st);
    std::vector<std::vector<Race>> found;
    std::vector<std::size_t> counts;
    if (const auto* order = dynamic_cast<const SpOrderOracle*>(s.oracle.get());
        order != nullptr) {
      std::vector<std::uint32_t> groups;
      for (std::size_t i = 0; i < s.live.size(); ++i)
        if (racy[i] != 0) groups.push_back(s.live[i]);
      st.racy_locations = st.order_locations = groups.size();
      found.resize(groups.size());
      counts.resize(groups.size(), 0);
      std::vector<std::size_t> bytes(groups.size(), 0);
      run_sharded(options, groups.size(), [&](std::size_t i) {
        const std::uint32_t g = groups[i];
        counts[i] = order_location(c, *order, s.index.location(g),
                                   s.index.accessors(g), k, found[i],
                                   bytes[i]);
      });
      if (!bytes.empty())
        st.scratch_peak_bytes = *std::max_element(bytes.begin(), bytes.end());
    } else {
      const EnumerationPlan p = plan_enumeration(s, racy, options, st);
      found.resize(p.tasks());
      counts.resize(p.tasks(), 0);
      std::vector<TallySink> sinks(p.tasks());
      run_plan(
          c, s, p, options, simd, st,
          [&](std::size_t i, std::uint32_t g, std::size_t& queries) {
            // One location's races arrive in order: its first k are its
            // k smallest.
            scan_direct_location(c, *s.oracle, s.index.location(g),
                                 s.index.accessors(g), queries,
                                 [] { return true; },
                                 [&](const Race& r) {
                                   ++counts[i];
                                   if (found[i].size() < k)
                                     found[i].push_back(r);
                                 });
          },
          [&](std::size_t i) -> TallySink& {
            sinks[i].c = &c;
            sinks[i].k = k;
            return sinks[i];
          });
      for (std::size_t i = p.direct.size(); i < p.tasks(); ++i) {
        counts[i] = sinks[i].count;
        found[i] = std::move(sinks[i].heap);
      }
    }
    for (const std::size_t n : counts) summary.count += n;
    summary.smallest = smallest_of(found, k);
  }
  st.races = summary.count;
  st.scan_millis = millis_since(t0);
  if (stats != nullptr) *stats = std::move(st);
  return summary;
}

std::optional<Race> find_first_race(const Computation& c,
                                    const RaceScanOptions& options,
                                    RaceScanStats* stats) {
  const auto t0 = Clock::now();
  RaceScanStats st;
  ScanSetup s = scan_setup(c, options, st);
  std::optional<Race> best;
  if (!s.live.empty()) {
    std::vector<std::optional<Race>> first(s.live.size());
    std::vector<std::size_t> queries(s.live.size(), 0);
    run_sharded(options, s.live.size(), [&](std::size_t i) {
      first[i] = location_first_race(c, s, s.live[i], queries[i]);
    });
    for (std::size_t i = 0; i < s.live.size(); ++i) {
      st.oracle_queries += queries[i];
      if (!first[i].has_value()) continue;
      ++st.racy_locations;
      if (!best.has_value() || Race::less(*first[i], *best)) best = first[i];
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
  std::atomic<bool> found{false};
  run_sharded(options, s.live.size(), [&](std::size_t i) {
    if (found.load(std::memory_order_relaxed)) return;
    std::size_t q = 0;
    if (location_first_race(c, s, s.live[i], q))
      found.store(true, std::memory_order_relaxed);
  });
  return found.load(std::memory_order_relaxed);
}

std::string RaceScanStats::to_string() const {
  std::string out = format(
      "oracle: %s (%zu bytes, built in %.2f ms)\n"
      "scan: %.2f ms, %zu locations (%zu racy: %zu by order inversions, "
      "%zu direct, %zu via %zu mask chunks), %zu oracle queries\n",
      oracle_kind.c_str(), oracle_memory_bytes, oracle_build_millis,
      scan_millis, locations, racy_locations, order_locations,
      direct_locations, mask_locations, mask_groups, oracle_queries);
  if (!simd.empty())
    out += format("data plane: %s kernels, groups %zu B, "
                  "scratch peak %zu B\n",
                  simd.c_str(), groups_bytes, scratch_peak_bytes);
  out += format("races: %zu%s\n", races, truncated ? " (cap hit)" : "");
  return out;
}

}  // namespace ccmm::analyze
