#include "dag/precedence_oracle.hpp"

#include <algorithm>
#include <limits>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

// Header-only sidecar describing the SP parse; depending on it here
// keeps the oracle layer in dag/ without linking against ccmm_core.
#include "core/sp_structure.hpp"
#include "util/simd.hpp"

namespace ccmm {

ClosureOracle::ClosureOracle(const Dag& dag) : dag_(&dag) {
  dag.ensure_closure();
}

namespace {

#if defined(__x86_64__) || defined(_M_X64)
/// u ≺ v ⇔ english[u] < english[v] ∧ hebrew[u] < hebrew[v], eight pairs
/// at a time: four 32-bit rank gathers and two signed compares (rank
/// values are array positions < n, far below the sign bit).
__attribute__((target("avx2"))) void sp_batch_avx2(
    const std::uint32_t* eng, const std::uint32_t* heb, const NodeId* us,
    const NodeId* vs, std::size_t k, std::uint8_t* out) {
  std::size_t i = 0;
  for (; i + 8 <= k; i += 8) {
    const __m256i ui =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(us + i));
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vs + i));
    const __m256i eu = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(eng), ui, sizeof(std::uint32_t));
    const __m256i ev = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(eng), vi, sizeof(std::uint32_t));
    const __m256i hu = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(heb), ui, sizeof(std::uint32_t));
    const __m256i hv = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(heb), vi, sizeof(std::uint32_t));
    const __m256i both = _mm256_and_si256(_mm256_cmpgt_epi32(ev, eu),
                                          _mm256_cmpgt_epi32(hv, hu));
    const int lanes = _mm256_movemask_ps(_mm256_castsi256_ps(both));
    for (int j = 0; j < 8; ++j)
      out[i + static_cast<std::size_t>(j)] =
          static_cast<std::uint8_t>((lanes >> j) & 1);
  }
  for (; i < k; ++i)
    out[i] = static_cast<std::uint8_t>(eng[us[i]] < eng[vs[i]] &&
                                       heb[us[i]] < heb[vs[i]]);
}
#endif  // x86-64

}  // namespace

void SpOrderOracle::precedes_batch(const NodeId* us, const NodeId* vs,
                                   std::size_t k, std::uint8_t* out) const {
#ifndef NDEBUG
  for (std::size_t i = 0; i < k; ++i)
    CCMM_ASSERT(us[i] < english_.size() && vs[i] < english_.size());
#endif
#if defined(__x86_64__) || defined(_M_X64)
  if (active_simd_level() == SimdLevel::kAvx2) {
    sp_batch_avx2(english_.data(), hebrew_.data(), us, vs, k, out);
    return;
  }
#endif
  for (std::size_t i = 0; i < k; ++i)
    out[i] = static_cast<std::uint8_t>(english_[us[i]] < english_[vs[i]] &&
                                       hebrew_[us[i]] < hebrew_[vs[i]]);
}

SpOrderOracle::SpOrderOracle(std::vector<std::uint32_t> english,
                             std::vector<std::uint32_t> hebrew)
    : english_(std::move(english)), hebrew_(std::move(hebrew)) {
  CCMM_CHECK(english_.size() == hebrew_.size(),
             "SP-order label arrays disagree on node count");
}

namespace {

constexpr std::uint32_t kUnlabeled = std::numeric_limits<std::uint32_t>::max();

/// English labels: the serial-elision replay order (a spawned child
/// executes entirely at its spawn point, then the continuation) — the
/// same walk analyze/sp_bags.cpp performs, minus the bags.
std::vector<std::uint32_t> english_labels(const SpStructure& sp) {
  std::vector<std::uint32_t> label(sp.node_count, kUnlabeled);
  std::uint32_t next = 0;
  const auto assign = [&](NodeId u) {
    CCMM_CHECK(u < label.size() && label[u] == kUnlabeled,
               "SP parse emits a node twice or out of range");
    label[u] = next++;
  };
  struct Frame {
    std::uint32_t strand;
    std::size_t next_event = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({0, 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    const std::span<const SpEvent> stream = sp.strand(f.strand);
    if (f.next_event == stream.size()) {
      stack.pop_back();
      continue;
    }
    const SpEvent e = stream[f.next_event++];
    switch (e.kind) {
      case SpEvent::Kind::kNode:
        assign(e.node);
        break;
      case SpEvent::Kind::kSpawn:
        stack.push_back({e.child, 0});  // serial elision: run child now
        break;
      case SpEvent::Kind::kSync:
        if (e.node != kBottom) assign(e.node);  // the join nop
        break;
      case SpEvent::Kind::kAdopt:
        break;  // the plain-called child already ran at its kSpawn
    }
  }
  return label;
}

/// Hebrew labels: the mirror replay. At a spawn the child is deferred;
/// the continuation runs to the sync, then the deferred children run in
/// reverse spawn order, then the join node. A plain-called (adopted)
/// child is serial either way and runs at its kAdopt event. Series
/// order is preserved and every parallel pair flips relative to the
/// English order, which is what makes the two labelings a realizer of
/// the SP partial order.
std::vector<std::uint32_t> hebrew_labels(const SpStructure& sp) {
  std::vector<std::uint32_t> label(sp.node_count, kUnlabeled);
  std::uint32_t next = 0;
  const auto assign = [&](NodeId u) {
    CCMM_CHECK(u < label.size() && label[u] == kUnlabeled,
               "SP parse emits a node twice or out of range");
    label[u] = next++;
  };
  struct Item {
    enum class Kind : std::uint8_t { kRun, kEmit } kind;
    std::uint32_t strand_or_node;
    std::size_t from_event = 0;
  };
  std::vector<std::vector<std::uint32_t>> pending(sp.strand_count());
  std::vector<Item> work;
  work.push_back({Item::Kind::kRun, 0, 0});
  while (!work.empty()) {
    const Item item = work.back();
    work.pop_back();
    if (item.kind == Item::Kind::kEmit) {
      assign(item.strand_or_node);
      continue;
    }
    const std::uint32_t s = item.strand_or_node;
    const std::span<const SpEvent> stream = sp.strand(s);
    std::size_t i = item.from_event;
    bool suspended = false;
    while (i < stream.size() && !suspended) {
      const SpEvent e = stream[i];
      switch (e.kind) {
        case SpEvent::Kind::kNode:
          assign(e.node);
          ++i;
          break;
        case SpEvent::Kind::kSpawn:
          pending[s].push_back(e.child);  // defer until the sync
          ++i;
          break;
        case SpEvent::Kind::kAdopt: {
          auto& pd = pending[s];
          const auto it = std::find(pd.begin(), pd.end(), e.child);
          CCMM_CHECK(it != pd.end(), "adopted child not pending");
          pd.erase(it);
          // Caller resumes after the serial callee completes.
          work.push_back({Item::Kind::kRun, s, i + 1});
          work.push_back({Item::Kind::kRun, e.child, 0});
          suspended = true;
          break;
        }
        case SpEvent::Kind::kSync: {
          auto& pd = pending[s];
          if (pd.empty()) {
            if (e.node != kBottom) assign(e.node);
            ++i;
            break;
          }
          // LIFO: continuation last, join before it, children on top in
          // spawn order so the latest spawn pops (= runs) first.
          work.push_back({Item::Kind::kRun, s, i + 1});
          if (e.node != kBottom) work.push_back({Item::Kind::kEmit, e.node});
          for (const std::uint32_t child : pd)
            work.push_back({Item::Kind::kRun, child, 0});
          pd.clear();
          suspended = true;
          break;
        }
      }
    }
    if (!suspended && !pending[s].empty()) {
      // Defensive implicit end-of-procedure sync (CilkProgram always
      // records an explicit one, but a hand-built parse may not).
      for (const std::uint32_t child : pending[s])
        work.push_back({Item::Kind::kRun, child, 0});
      pending[s].clear();
    }
  }
  return label;
}

}  // namespace

std::unique_ptr<SpOrderOracle> make_sp_order_oracle(const SpStructure& sp) {
  std::vector<std::uint32_t> eng = english_labels(sp);
  std::vector<std::uint32_t> heb = hebrew_labels(sp);
  for (std::size_t u = 0; u < eng.size(); ++u)
    CCMM_CHECK(eng[u] != kUnlabeled && heb[u] != kUnlabeled,
               "SP parse does not cover every node");
  return std::make_unique<SpOrderOracle>(std::move(eng), std::move(heb));
}

ChainDecompositionOracle::ChainDecompositionOracle(const Dag& dag)
    : ChainDecompositionOracle(dag, CoverOnly{}) {
  build_table(dag);
}

ChainDecompositionOracle::ChainDecompositionOracle(const Dag& dag, CoverOnly) {
  const std::size_t n = dag.node_count();
  chain_of_.assign(n, kUnlabeled);
  pos_.assign(n, 0);
  const std::vector<NodeId> topo =
      dag.ids_topological() ? std::vector<NodeId>{} : dag.topological_order();
  const auto topo_at = [&](std::size_t i) {
    return topo.empty() ? static_cast<NodeId>(i) : topo[i];
  };

  // Greedy cover: walk the topological order; an uncovered node starts a
  // chain, which is extended along uncovered successors (preferring the
  // one with fewest uncovered predecessors, a cheap width heuristic).
  for (std::size_t i = 0; i < n; ++i) {
    NodeId u = topo_at(i);
    if (chain_of_[u] != kUnlabeled) continue;
    const auto c = static_cast<std::uint32_t>(nchains_++);
    std::uint32_t p = 0;
    for (;;) {
      chain_of_[u] = c;
      pos_[u] = p++;
      NodeId best = kBottom;
      std::size_t best_score = std::numeric_limits<std::size_t>::max();
      for (const NodeId s : dag.succ(u)) {
        if (chain_of_[s] != kUnlabeled) continue;
        std::size_t uncovered_preds = 0;
        for (const NodeId q : dag.pred(s))
          if (chain_of_[q] == kUnlabeled) ++uncovered_preds;
        if (uncovered_preds < best_score) {
          best_score = uncovered_preds;
          best = s;
        }
      }
      if (best == kBottom) break;
      u = best;
    }
  }
}

void ChainDecompositionOracle::build_table(const Dag& dag) {
  const std::size_t n = dag.node_count();
  const std::vector<NodeId> topo =
      dag.ids_topological() ? std::vector<NodeId>{} : dag.topological_order();
  const auto topo_at = [&](std::size_t i) {
    return topo.empty() ? static_cast<NodeId>(i) : topo[i];
  };
  // up_[u][c] = min position on chain c among nodes reachable from u
  // (including u itself): reverse topological sweep merging successors.
  up_.assign(n * nchains_, kUnlabeled);
  for (std::size_t i = n; i-- > 0;) {
    const NodeId u = topo_at(i);
    std::uint32_t* row = up_.data() + static_cast<std::size_t>(u) * nchains_;
    row[chain_of_[u]] = pos_[u];
    for (const NodeId s : dag.succ(u)) {
      const std::uint32_t* srow =
          up_.data() + static_cast<std::size_t>(s) * nchains_;
      for (std::size_t c = 0; c < nchains_; ++c)
        row[c] = std::min(row[c], srow[c]);
    }
  }
}

std::unique_ptr<PrecedenceOracle> make_oracle(const Dag& dag,
                                              const SpStructure* sp,
                                              const OracleOptions& options) {
  OracleChoice choice = options.choice;
  if (choice == OracleChoice::kAuto) {
    if (sp != nullptr && sp->node_count == dag.node_count()) {
      choice = OracleChoice::kSpOrder;
    } else if (dag.node_count() <= options.closure_threshold) {
      choice = OracleChoice::kClosure;
    } else {
      // Price the chain cover before building its table; keep it only
      // if it undercuts the closure's n²/4 bytes (it usually does
      // unless the dag is wide).
      auto chain = std::make_unique<ChainDecompositionOracle>(
          dag, ChainDecompositionOracle::CoverOnly{});
      const std::size_t n = dag.node_count();
      if (chain->table_bytes() <= n * n / 4) {
        chain->build_table(dag);
        return chain;
      }
      choice = OracleChoice::kClosure;
    }
  }
  switch (choice) {
    case OracleChoice::kSpOrder:
      CCMM_CHECK(sp != nullptr, "SP-order oracle requires an SP parse");
      CCMM_CHECK(sp->node_count == dag.node_count(),
                 "SP parse does not match this dag");
      return make_sp_order_oracle(*sp);
    case OracleChoice::kChain:
      return std::make_unique<ChainDecompositionOracle>(dag);
    case OracleChoice::kClosure:
    case OracleChoice::kAuto:
      break;
  }
  return std::make_unique<ClosureOracle>(dag);
}

}  // namespace ccmm
