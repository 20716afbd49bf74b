// Drive LocStates directly: the shared-context setup the checking
// engine performs, reproduced for the kernel differentials in
// test_loc_incremental.cpp and the mid-stream reference of
// test_serve.cpp.
#pragma once

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "core/loc_incremental.hpp"
#include "core/location_index.hpp"
#include "trace/large_check.hpp"

namespace ccmm {

/// Topological order, the location index, the writer→block/location
/// maps and a lazy oracle; the kernels read the dag's own edge arrays.
/// Holds one task per location the engine would check (plus all-⊥
/// stored columns, which both sides of a differential treat
/// identically).
struct KernelHarness {
  struct Task {
    Location loc = 0;
    const std::vector<NodeId>* col = nullptr;
    std::span<const NodeId> writers;
  };

  const Computation* c;
  std::vector<NodeId> topo;
  std::vector<std::uint32_t> posv;
  LocationIndex index;
  std::vector<std::uint32_t> wblock;
  std::vector<std::uint32_t> wloc;
  LazyOracle oracle;
  LocKernelCtx ctx;
  std::vector<Task> tasks;

  KernelHarness(const Computation& comp, const ObserverFunction& phi,
                std::uint32_t models, std::uint32_t checked, bool fresh)
      : c(&comp), oracle([&comp] {
          return make_oracle(comp.dag(), comp.sp_structure().get(), {});
        }) {
    const std::size_t n = comp.node_count();
    if (comp.dag().ids_topological()) {
      topo.resize(n);
      std::iota(topo.begin(), topo.end(), NodeId{0});
    } else {
      topo = comp.dag().topological_order();
      posv.resize(n);
      for (std::uint32_t p = 0; p < n; ++p) posv[topo[p]] = p;
    }
    index = LocationIndex(comp);
    wblock.assign(n, 0);
    wloc.assign(n, 0);
    index.build_csr(false, [&](NodeId u, std::uint32_t li, std::uint32_t k) {
      wblock[u] = k + 1;
      wloc[u] = index.location(li);
    });
    ctx = LocKernelCtx{&comp,
                       &oracle,
                       &topo,
                       posv.empty() ? nullptr : posv.data(),
                       wblock.data(),
                       wloc.data(),
                       models,
                       checked,
                       fresh,
                       SimdLevel::kScalar};

    const std::vector<Location>& stored = phi.stored_locations();
    std::vector<Location> all = index.locations();
    all.insert(all.end(), stored.begin(), stored.end());
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    for (const Location l : all) {
      const auto si = std::lower_bound(stored.begin(), stored.end(), l);
      const std::vector<NodeId>* col =
          si != stored.end() && *si == l
              ? &phi.stored_column(
                    static_cast<std::size_t>(si - stored.begin()))
              : nullptr;
      std::span<const NodeId> writers;
      const std::vector<Location>& locs = index.locations();
      const auto li = std::lower_bound(locs.begin(), locs.end(), l);
      if (li != locs.end() && *li == l)
        writers = index.writers(static_cast<std::size_t>(li - locs.begin()));
      tasks.push_back(Task{l, col, writers});
    }
  }
};

/// The report a check over any scan prefix of a complete observer must
/// give: every task's LocState advanced over the prefix in one span and
/// finalized, folded the way the checking engine folds its rows.
class KernelPrefixReference {
 public:
  KernelPrefixReference(const Computation& c, const ObserverFunction& phi,
                        std::uint32_t models)
      : checked_(models & kLargeCheckExt),
        h_(c, phi, base_models(checked_), checked_,
           (checked_ & kLargeCheckPlus) != 0) {}

  /// A location with no writers gets a row only when `has_row(loc)`
  /// says a record observing it has arrived.
  template <class HasRow>
  [[nodiscard]] LargeCheckReport report(std::uint32_t prefix,
                                        const HasRow& has_row) const {
    LargeCheckReport r;
    r.checked = checked_;
    r.valid_observer = true;
    std::uint32_t violated = 0;
    for (const KernelHarness::Task& t : h_.tasks) {
      if (t.writers.empty() && !has_row(t.loc)) continue;
      LocArena arena;
      LocState st;
      st.init(h_.ctx, t.loc, t.col, t.writers);
      st.advance(0, prefix, arena);
      LocationCheck lc;
      st.finalize_into(lc, arena);
      if (!lc.valid) r.valid_observer = false;
      violated |= lc.violated;
      if (r.detail.empty()) r.detail = lc.detail;
      r.locations.push_back(std::move(lc));
    }
    r.satisfied = r.valid_observer ? (r.checked & ~violated) : 0;
    return r;
  }

  /// The sticky bits a fast verdict must show over the same prefix: the
  /// B_⊥-edge and freshness flags of the written locations, with the
  /// freshness composites folded in, clipped to the checked models.
  [[nodiscard]] std::uint32_t known_violated(std::uint32_t prefix) const {
    std::uint32_t v = 0;
    for (const KernelHarness::Task& t : h_.tasks) {
      if (t.writers.empty()) continue;
      LocArena arena;
      LocState st;
      st.init(h_.ctx, t.loc, t.col, t.writers);
      st.advance(0, prefix, arena);
      if (st.lc_known_violated()) v |= kSuiteLC;
      if (st.freshness_known_violated()) v |= kSuiteFresh;
    }
    if ((v & kSuiteFresh) != 0) v |= kSuiteWNPlus | kSuiteNNPlus;
    return v & checked_;
  }

 private:
  /// The base bits the kernel decides: composites expand to their
  /// corners.
  static std::uint32_t base_models(std::uint32_t checked) {
    std::uint32_t base = checked & kLargeCheckAll;
    if ((checked & kSuiteWNPlus) != 0) base |= kSuiteWN;
    if ((checked & kSuiteNNPlus) != 0) base |= kSuiteNN;
    return base;
  }

  std::uint32_t checked_;
  KernelHarness h_;
};

}  // namespace ccmm
