#include "analyze/sp_bags.hpp"

#include <algorithm>

#include "core/location_index.hpp"

namespace ccmm::analyze {
namespace {

enum class BagKind : std::uint8_t { kS, kP };

// Disjoint-set union over strand ids with a bag tag per root. Sets only
// ever merge (a child's bags fold into its parent's at sync/adopt time),
// so union by rank + path halving gives the O(α) amortized find the
// near-linear bound needs.
class Bags {
 public:
  explicit Bags(std::size_t n)
      : parent_(n), rank_(n, 0), kind_(n, BagKind::kS) {
    for (std::uint32_t i = 0; i < n; ++i) parent_[i] = i;
  }

  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  /// Merge the set rooted at `root` into the set containing `into`; the
  /// merged set gets kind `k`.
  void absorb(std::uint32_t into, std::uint32_t root, BagKind k) {
    std::uint32_t a = find(into);
    std::uint32_t b = find(root);
    if (a == b) {
      kind_[a] = k;
      return;
    }
    if (rank_[a] < rank_[b]) std::swap(a, b);
    parent_[b] = a;
    if (rank_[a] == rank_[b]) ++rank_[a];
    kind_[a] = k;
  }

  void set_kind(std::uint32_t x, BagKind k) { kind_[find(x)] = k; }
  [[nodiscard]] BagKind kind_of(std::uint32_t x) { return kind_[find(x)]; }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> rank_;
  std::vector<BagKind> kind_;
};

const SpStructure& checked_structure(const Computation& c) {
  const SpStructurePtr& sp = c.sp_structure();
  CCMM_CHECK(sp != nullptr, "computation carries no SP structure");
  CCMM_CHECK(sp->node_count == c.node_count(),
             "SP structure does not match this computation");
  return *sp;
}

// Serial-elision replay of the SP parse. `on_access` is called for every
// non-nop node in serial order, with the Bags state positioned at that
// instruction; it returns false to abort the replay (early exit).
template <typename OnAccess>
bool replay(const Computation& c, const SpStructure& sp, Bags& bags,
            OnAccess&& on_access) {
  // Explicit stack instead of recursion: deeply nested spawn chains are
  // legitimate programs (a 10k-deep spawn spine must not overflow).
  struct Frame {
    std::uint32_t strand;
    std::size_t next = 0;  // next event index
  };
  std::vector<std::vector<std::uint32_t>> pending(sp.strand_count());
  std::vector<Frame> stack;
  stack.push_back({0, 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    const std::span<const SpEvent> stream = sp.strand(f.strand);
    if (f.next == stream.size()) {
      // Implicit end-of-procedure sync: a strand joins every child it
      // spawned before returning, so its parent receives a single set.
      for (const std::uint32_t r : pending[f.strand])
        bags.absorb(f.strand, r, BagKind::kS);
      pending[f.strand].clear();
      const std::uint32_t done = f.strand;
      stack.pop_back();
      if (!stack.empty()) {
        // Spawn return: the child's whole set becomes a P-bag of the
        // caller — parallel with the continuation until the next sync.
        const std::uint32_t root = bags.find(done);
        bags.set_kind(root, BagKind::kP);
        pending[stack.back().strand].push_back(root);
      }
      continue;
    }
    const SpEvent e = stream[f.next++];
    switch (e.kind) {
      case SpEvent::Kind::kNode: {
        const Op o = c.op(e.id);
        if (o.is_nop()) break;
        if (!on_access(e.id, f.strand, o)) return false;
        break;
      }
      case SpEvent::Kind::kSpawn:
        stack.push_back({e.id, 0});  // serial elision: run child now
        break;
      case SpEvent::Kind::kSync:
        for (const std::uint32_t r : pending[f.strand])
          bags.absorb(f.strand, r, BagKind::kS);
        pending[f.strand].clear();
        break;
      case SpEvent::Kind::kAdopt: {
        // Plain-call return: the callee is serially before everything
        // the caller does next, so its set folds into the caller's
        // S-bag instead of floating as a P-bag.
        const std::uint32_t root = bags.find(e.id);
        auto& pd = pending[f.strand];
        const auto it = std::find(pd.begin(), pd.end(), root);
        CCMM_CHECK(it != pd.end(), "adopted child set not pending");
        pd.erase(it);
        bags.absorb(f.strand, root, BagKind::kS);
        break;
      }
    }
  }
  return true;
}

}  // namespace

std::vector<Race> find_races_sp(const Computation& c) {
  const SpStructure& sp = checked_structure(c);
  Bags bags(sp.strand_count());
  // Full shadow: every prior accessor per written location (no access
  // of a never-written location can race). A new access is membership-
  // tested against each of them — one find() instead of one closure
  // probe — yielding exactly the pairwise detector's race set.
  struct Access {
    NodeId node;
    std::uint32_t strand;
    bool write;
  };
  const LocationIndex index(c);
  std::vector<std::vector<Access>> shadow(index.size());
  std::vector<Race> races;
  replay(c, sp, bags, [&](NodeId u, std::uint32_t strand, Op o) {
    const std::uint32_t a = index[u];
    if (a == kNoWrittenLoc) return true;
    std::vector<Access>& list = shadow[a >> 1];
    const bool uw = (a & 1u) != 0;
    for (const Access& prev : list) {
      if (!prev.write && !uw) continue;  // read/read never races
      if (bags.kind_of(prev.strand) != BagKind::kP) continue;
      races.push_back(Race::between(c, prev.node, u, o.loc));
    }
    list.push_back({u, strand, uw});
    return true;
  });
  std::sort(races.begin(), races.end(), Race::less);
  return races;
}

bool has_race_sp(const Computation& c) {
  const SpStructure& sp = checked_structure(c);
  Bags bags(sp.strand_count());
  // Classic constant-size shadow: one reader and one writer strand per
  // location, maintained by the Feng–Leiserson update rules, suffices to
  // detect *whether* a race exists. The scan usually stops early, so the
  // ids index the shadow, and no location index is built, while they
  // stay below n + 1024; a larger id restarts the scan on the index's
  // slots, which skip the never-written locations: they cannot race.
  constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  struct Shadow {
    std::uint32_t reader = kNone;
    std::uint32_t writer = kNone;
  };
  const std::size_t limit = c.node_count() + 1024;
  LocationIndex index;
  bool by_id = true;
  std::vector<Shadow> shadow;
  const auto visit = [&](NodeId u, std::uint32_t strand, Op o) {
    std::size_t k = o.loc;
    if (!by_id) {
      if (index[u] == kNoWrittenLoc) return true;
      k = index[u] >> 1;
    } else if (k >= limit) {
      by_id = false;
      return false;
    } else if (k >= shadow.size()) {
      shadow.resize(std::max(k + 1, 2 * shadow.size()));
    }
    Shadow& s = shadow[k];
    if (o.is_read()) {
      if (s.writer != kNone && bags.kind_of(s.writer) == BagKind::kP)
        return false;  // race found
      if (s.reader == kNone || bags.kind_of(s.reader) == BagKind::kS)
        s.reader = strand;
      return true;
    }
    if ((s.reader != kNone && bags.kind_of(s.reader) == BagKind::kP) ||
        (s.writer != kNone && bags.kind_of(s.writer) == BagKind::kP))
      return false;  // race found
    s.writer = strand;
    return true;
  };
  bool completed = replay(c, sp, bags, visit);
  if (!by_id) {
    index = LocationIndex(c);
    shadow.assign(index.size(), Shadow{});
    bags = Bags(sp.strand_count());
    completed = replay(c, sp, bags, visit);
  }
  return !completed;
}

}  // namespace ccmm::analyze
