#include "core/prepared.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "core/last_writer.hpp"

namespace ccmm {

const PreparedPair::LocationPrep* PreparedPair::location(Location l) const {
  const auto it = std::lower_bound(
      locs_.begin(), locs_.end(), l,
      [](const LocationPrep& lp, Location x) { return lp.loc < x; });
  return it != locs_.end() && it->loc == l ? &*it : nullptr;
}

const std::vector<NodeId>& PreparedPair::topological_order() const {
  if (!topo_valid_) {
    topo_ = c_->dag().topological_order();
    topo_valid_ = true;
  }
  return topo_;
}

const ObserverFunction& PreparedPair::canonical_last_writer() const {
  if (!last_writer_) last_writer_ = last_writer(*c_, topological_order());
  return *last_writer_;
}

std::uint32_t PreparedPair::violated(std::uint32_t bits) const {
  bits &= kLargeCheckExt;
  if (!valid()) return bits;
  std::uint32_t out = 0;
  // Once every requested bit is seen violated, the answer is known.
  for (const LocationPrep& lp : locs_)
    if ((out |= violated_at(lp, bits)) == bits) break;
  return out;
}

std::uint32_t PreparedPair::violated_at(const LocationPrep& at,
                                        std::uint32_t bits) const {
  bits &= kLargeCheckExt;
  // `at` must be one of this pair's locations (std::less orders any
  // two pointers).
  CCMM_CHECK(!std::less<>()(&at, locs_.data()) &&
                 std::less<>()(&at, locs_.data() + locs_.size()),
             "location of another pair");
  LocationPrep& lp = locs_[static_cast<std::size_t>(&at - locs_.data())];
  if ((bits & ~lp.decided) != 0) {
    // The first request decides its own bits: a one-shot check, or the
    // weakest entry of a sweep, may need no more. A location asked again
    // is being classified, so the second run decides every base bit.
    std::uint32_t need = lp.decided == 0 ? bits : bits | kLargeCheckAll;
    // A composite needs its corner and freshness.
    if ((need & kSuiteWNPlus) != 0) need |= kSuiteWN | kSuiteFresh;
    if ((need & kSuiteNNPlus) != 0) need |= kSuiteNN | kSuiteFresh;
    const std::uint32_t run =
        need & ~lp.decided & (kLargeCheckAll | kSuiteFresh);
    lp.decided |= need;
    if (run != 0)
      lp.violated |= ctx_->run(*this, lp, run).violations(ctx_->arena_);
    lp.violated = fold_composites(lp.violated, lp.decided);
  }
  return lp.violated & bits;
}

const LocState& PreparedPair::run_kernel(const LocationPrep& lp,
                                         std::uint32_t bits) const {
  CCMM_ASSERT(valid());
  LocState& st = ctx_->run(*this, lp, bits);
  (void)st.violations(ctx_->arena_);
  return st;
}

LocState& CheckContext::run(const PreparedPair& p,
                            const PreparedPair::LocationPrep& lp,
                            std::uint32_t bits) {
  const Computation& c = p.computation();
  const std::size_t n = c.node_count();
  // The writer→block and writer→location maps, for this location's
  // writers alone: the kernel only asks about its own location.
  wblock_.assign(n, 0);
  wloc_.resize(n);  // read only where wblock_ is nonzero
  for (std::size_t i = 0; i < lp.writers.size(); ++i) {
    wblock_[lp.writers[i]] = static_cast<std::uint32_t>(i) + 1;
    wloc_[lp.writers[i]] = lp.loc;
  }
  // The scan order: ids when topological, else the pair's canonical
  // order and its inverse.
  const std::vector<NodeId>* topo = &ids_;
  const std::uint32_t* pos_of = nullptr;
  if (c.dag().ids_topological()) {
    if (ids_.size() < n) {
      ids_.resize(n);
      std::iota(ids_.begin(), ids_.end(), NodeId{0});
    }
  } else {
    topo = &p.topological_order();
    pos_of_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) pos_of_[(*topo)[i]] = i;
    pos_of = pos_of_.data();
  }
  // No oracle: the pair's Φ is valid, so 2.2 needs no second answer.
  const bool fresh = (bits & kSuiteFresh) != 0;
  kctx_ = LocKernelCtx{&c,
                       nullptr,
                       topo,
                       pos_of,
                       wblock_.data(),
                       wloc_.data(),
                       bits & kLargeCheckAll,
                       bits & (kLargeCheckAll | kSuiteFresh),
                       fresh,
                       active_simd_level()};
  // A written location of a valid Φ always has a stored column.
  const std::vector<Location>& stored = p.observer().stored_locations();
  const auto it = std::lower_bound(stored.begin(), stored.end(), lp.loc);
  CCMM_ASSERT(it != stored.end() && *it == lp.loc);
  const std::vector<NodeId>& col = p.observer().stored_column(
      static_cast<std::size_t>(it - stored.begin()));
  state_.init(kctx_, lp.loc, &col, lp.writers);
  state_.advance(0, static_cast<std::uint32_t>(n), arena_);
  return state_;
}

PreparedPair CheckContext::prepare(const Computation& c,
                                   const ObserverFunction& phi) {
  ++stats_.prepared;
  PreparedPair p;
  p.c_ = &c;
  p.phi_ = &phi;
  p.ctx_ = this;
  // Freeze reachability before anything else: parallel stages consuming
  // prepared pairs must never race the lazy closure build.
  c.dag().ensure_closure();
  p.validity_ = validate_observer(c, phi);
  if (!p.validity_.ok) return p;  // checkers reject before the kernel
  for (const Location l : c.written_locations())
    p.locs_.push_back({l, c.writers(l), 0, 0});
  return p;
}

PreparedPair prepare_pair(const Computation& c, const ObserverFunction& phi) {
  thread_local CheckContext ctx;
  return ctx.prepare(c, phi);
}

}  // namespace ccmm
