#include "core/loc_incremental.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <numeric>

#include "util/check.hpp"
#include "util/str.hpp"

namespace ccmm {
namespace {

using Clock = std::chrono::steady_clock;

double millis_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Oracle queries per precedes_batch flush during the staging pass.
constexpr std::size_t kOracleBatch = 4096;

}  // namespace

const PrecedenceOracle& LazyOracle::get() const {
  std::call_once(once_, [this] {
    if (oracle_ == nullptr) {
      const auto t0 = Clock::now();
      oracle_ = factory_();
      build_millis_ = millis_since(t0);
    }
    built_ = true;
  });
  return *oracle_;
}

void LocArena::note_peak() {
  const std::size_t words32 =
      qhead.capacity() + qcur.capacity() + qtgt.capacity() +
      indeg.capacity() + stack.capacity() + blocks.capacity() +
      bpos.capacity() + stage.blk.capacity();
  const std::size_t words64 =
      anc.capacity() + wri.capacity() + desc.capacity();
  peak_bytes = std::max(
      peak_bytes, words32 * sizeof(std::uint32_t) +
                      (bus.capacity() + bxs.capacity()) * sizeof(NodeId) +
                      words64 * sizeof(std::uint64_t) + bout.capacity());
}

std::uint32_t fold_composites(std::uint32_t violated, std::uint32_t checked) {
  if ((checked & kSuiteWNPlus) != 0 &&
      (violated & (kSuiteWN | kSuiteFresh)) != 0)
    violated |= kSuiteWNPlus;
  if ((checked & kSuiteNNPlus) != 0 &&
      (violated & (kSuiteNN | kSuiteFresh)) != 0)
    violated |= kSuiteNNPlus;
  return violated & checked;
}

std::string loc_fail_detail(LocFailKind kind, Location loc, NodeId u,
                            NodeId x) {
  switch (kind) {
    case LocFailKind::kBottomWriter:
    case LocFailKind::kWriteNotSelf:
      return format("write %u does not observe itself at location %u", u,
                    loc);
    case LocFailKind::kNotAWrite:
      return format("Φ(%u, %u) = %u, which is not a write to location %u",
                    loc, u, x, loc);
    case LocFailKind::kPrecedesWrite:
      return format("node %u precedes its observed write %u at location %u",
                    u, x, loc);
    case LocFailKind::kNone:
      break;
  }
  return {};
}

namespace {

/// Resolve one location's chunk into arena.stage: the Φ-block of
/// every position plus the earliest validity failure.
void stage_chunk(const LocKernelCtx& ctx, Location loc,
                 const std::vector<NodeId>* col, std::uint32_t pos0,
                 std::uint32_t pos1, LocArena& arena) {
  LocStage& out = arena.stage;
  const std::vector<NodeId>& topo = *ctx.topo;
  out.blk.resize(pos1 - pos0);
  out.fail_pos = kLocNoPos;
  out.fail_kind = LocFailKind::kNone;

  if (col == nullptr) {
    // The all-⊥ column: every block is B_⊥ and the only possible
    // failure is a write observing nothing (2.3).
    std::fill(out.blk.begin(), out.blk.end(), 0);
    for (std::uint32_t pos = pos0; pos < pos1; ++pos) {
      const NodeId u = topo[pos];
      if (ctx.writes_loc(u, loc)) {
        out.fail_pos = pos;
        out.fail_kind = LocFailKind::kBottomWriter;
        out.u = u;
        out.x = kBottom;
        return;
      }
    }
    return;
  }

  const std::size_t n = ctx.c->node_count();
  arena.bus.clear();
  arena.bxs.clear();
  arena.bpos.clear();

  // Earliest failing pair of the pending 2.2 batch (pairs are pushed in
  // ascending position, so the first failing index is the earliest).
  const auto flush = [&]() -> bool {
    const std::size_t k = arena.bus.size();
    if (k == 0) return false;
    arena.bout.resize(k);
    ctx.oracle->get().precedes_batch(arena.bus.data(), arena.bxs.data(), k,
                                     arena.bout.data());
    for (std::size_t i = 0; i < k; ++i) {
      if (arena.bout[i] != 0) {  // 2.2: u strictly precedes Φ(l, u)
        out.fail_pos = arena.bpos[i];
        out.fail_kind = LocFailKind::kPrecedesWrite;
        out.u = arena.bus[i];
        out.x = arena.bxs[i];
        return true;
      }
    }
    arena.bus.clear();
    arena.bxs.clear();
    arena.bpos.clear();
    return false;
  };
  // An inline (2.1/2.3) failure at `pos` is the verdict only if no pair
  // already batched — all at strictly earlier positions — fails 2.2.
  const auto fail_inline = [&](std::uint32_t pos, LocFailKind kind, NodeId u,
                               NodeId x) {
    if (flush()) return;
    out.fail_pos = pos;
    out.fail_kind = kind;
    out.u = u;
    out.x = x;
  };

  for (std::uint32_t pos = pos0; pos < pos1; ++pos) {
    const NodeId u = topo[pos];
    const NodeId x = (*col)[u];
    std::uint32_t b = 0;
    if (x == kBottom) {
      if (ctx.writes_loc(u, loc)) {  // 2.3: a write observing ⊥
        fail_inline(pos, LocFailKind::kBottomWriter, u, x);
        break;
      }
    } else if (x >= n || !ctx.writes_loc(x, loc)) {  // 2.1
      fail_inline(pos, LocFailKind::kNotAWrite, u, x);
      break;
    } else if (ctx.writes_loc(u, loc)) {
      if (x != u) {  // 2.3: a write observing another node
        fail_inline(pos, LocFailKind::kWriteNotSelf, u, x);
        break;
      }
      b = ctx.wblock[x];
    } else {
      b = ctx.wblock[x];
      // 2.2: query the oracle only when the observed write sits LATER
      // in the scan order — u ≺ x forces pos(u) < pos(x), so a
      // backward-pointing pair is vacuously fine. Trace observers
      // only ever point backward and stage with zero queries; a
      // validated Φ (no oracle) asks none at all.
      if (ctx.oracle != nullptr && ctx.pos(x) > pos) {
        arena.bus.push_back(u);
        arena.bxs.push_back(x);
        arena.bpos.push_back(pos);
        if (arena.bus.size() >= kOracleBatch && flush()) break;
      }
    }
    out.blk[pos - pos0] = b;
  }
  if (out.fail_pos == kLocNoPos) flush();
  arena.bus.clear();
  arena.bxs.clear();
  arena.bpos.clear();
}

}  // namespace

void LocState::init(const LocKernelCtx& ctx, Location loc,
                    const std::vector<NodeId>* col,
                    std::span<const NodeId> writers) {
  ctx_ = &ctx;
  loc_ = loc;
  col_ = col;
  writers_ = writers;
  consumed_ = 0;
  dead_ = false;
  fail_pos_ = kLocNoPos;
  fail_kind_ = LocFailKind::kNone;
  fail_u_ = 0;
  fail_x_ = 0;
  lc_violated_ = false;
  lc_dirty_ = false;
  drain_pos_.clear();
  if ((ctx.models & kSuiteLC) != 0) {
    drain_pos_.assign(writers.size() + 1, kLocNoPos);
    drain_pos_[0] = 0;  // B_⊥ is committed first, before any arrival
  }
  shadow_.reset_universe(ctx.fresh ? ctx.c->node_count() : 0);
  fresh_bad_ = false;
  fresh_node_ = 0;
}

std::uint32_t LocState::block_of_slow(NodeId q) const noexcept {
  if (col_ == nullptr) return 0;
  const NodeId x = (*col_)[q];
  if (x == kBottom || x >= ctx_->c->node_count()) return 0;
  if (!ctx_->writes_loc(x, loc_)) return 0;
  return ctx_->wblock[x];
}

void LocState::fail_at(std::uint32_t pos, LocFailKind kind, NodeId u,
                       NodeId x) {
  if (pos < fail_pos_) {
    fail_pos_ = pos;
    fail_kind_ = kind;
    fail_u_ = u;
    fail_x_ = x;
  }
}

void LocState::advance(std::uint32_t pos0, std::uint32_t pos1,
                       LocArena& arena) {
  CCMM_ASSERT(pos0 == consumed_);
  consumed_ = pos1;
  if (dead_ || pos0 >= pos1) return;

  stage_chunk(*ctx_, loc_, col_, pos0, pos1, arena);
  const LocStage& staged = arena.stage;
  if (staged.fail_pos < fail_pos_)
    fail_at(staged.fail_pos, staged.fail_kind, staged.u, staged.x);

  const std::vector<NodeId>& topo = *ctx_->topo;
  const std::uint32_t* blk = staged.blk.data();
  // Classify quotient edges only while the incremental verdict is still
  // informative: a sticky violation decides LC, and a dirty location is
  // decided by the full rebuild at verdict time either way.
  const bool run_lc = (ctx_->models & kSuiteLC) != 0 && !lc_violated_ &&
                      !lc_dirty_;
  const bool run_fresh = ctx_->fresh;
  const bool edges = run_lc || run_fresh;
  const Dag::Rows pred = ctx_->c->dag().pred_rows();
  const std::uint32_t* ph = pred.off;
  const NodeId* pt = pred.tgt;
  // Nothing past the first failure contributes to any verdict: the
  // location is invalid and model verdicts are not reported.
  const std::uint32_t end = std::min(pos1, fail_pos_);
  bool dirty = false;

  if (edges) {
    for (std::uint32_t pos = pos0; pos < end; ++pos) {
      const NodeId u = topo[pos];
      const std::uint32_t b = blk[pos - pos0];

      if (run_lc && !lc_violated_ && !dirty) {
        if (drain_pos_[b] == kLocNoPos) drain_pos_[b] = pos + 1;
        const std::uint32_t dpb = drain_pos_[b];
        for (std::uint32_t i = ph[u]; i < ph[u + 1]; ++i) {
          const NodeId q = pt[i];
          const std::uint32_t pq = ctx_->pos(q);
          const std::uint32_t a =
              pq >= pos0 ? blk[pq - pos0] : block_of_slow(q);
          if (a == b) continue;
          if (b == 0) {
            // A quotient edge into B_⊥: no serialization can place B_⊥
            // first anymore, in this or any extension. Sticky.
            lc_violated_ = true;
            break;
          }
          // drain_pos_[a] is assigned: q ∈ a already arrived. An edge
          // against the committed order does not prove a cycle — it
          // only invalidates the eager order, so fall back to the full
          // Kahn.
          if (drain_pos_[a] > dpb) dirty = true;
        }
      }

      if (run_fresh) {
        bool sh = false;
        for (std::uint32_t i = ph[u]; i < ph[u + 1] && !sh; ++i) {
          const NodeId q = pt[i];
          sh = shadow_.test(q) || ctx_->writes_loc(q, loc_);
        }
        if (sh) {
          shadow_.set(u);
          if (b == 0 && !fresh_bad_) {
            fresh_bad_ = true;
            fresh_node_ = u;
          }
        }
      }
    }
  }
  if (end < pos1) dead_ = true;
  if (dirty) lc_dirty_ = true;
}

/// Fill arena.blocks[u] for every arrived node (the dense node→block
/// map the verdict-time passes index). Unarrived entries stay stale and
/// are never read — every verdict loop skips positions ≥ consumed().
void LocState::fill_blocks(LocArena& arena) const {
  const std::size_t n = ctx_->c->node_count();
  const std::vector<NodeId>& topo = *ctx_->topo;
  arena.blocks.resize(n);
  for (std::uint32_t pos = 0; pos < consumed_; ++pos) {
    const NodeId u = topo[pos];
    arena.blocks[u] = block_of_slow(u);
  }
}

bool LocState::rebuild_lc_quotient(LocArena& s,
                                   std::vector<std::uint32_t>* order) const {
  // The dirty-location fallback: the exact counting-CSR Kahn the old
  // batch scan ran, over the consumed prefix. Duplicate edges are
  // retained — indeg counts parallel edges and each is decremented
  // exactly once during the drain.
  const std::vector<NodeId>& topo = *ctx_->topo;
  const std::size_t nblocks = writers_.size() + 1;
  const Dag::Rows pred = ctx_->c->dag().pred_rows();
  const std::uint32_t* ph = pred.off;
  const NodeId* pt = pred.tgt;
  s.indeg.assign(nblocks, 0);
  s.qhead.assign(nblocks + 1, 0);
  for (std::uint32_t pos = 0; pos < consumed_; ++pos) {
    const NodeId v = topo[pos];
    const std::uint32_t bv = s.blocks[v];
    for (std::uint32_t i = ph[v]; i < ph[v + 1]; ++i) {
      const std::uint32_t bq = s.blocks[pt[i]];
      if (bq != bv) {
        ++s.qhead[bq + 1];
        ++s.indeg[bv];
      }
    }
  }
  for (std::size_t b = 0; b < nblocks; ++b) s.qhead[b + 1] += s.qhead[b];

  bool ok = s.indeg[0] == 0;  // B_⊥ must be placeable first
  if (ok) {
    s.qtgt.resize(s.qhead[nblocks]);
    s.qcur.assign(s.qhead.begin(), s.qhead.end() - 1);
    for (std::uint32_t pos = 0; pos < consumed_; ++pos) {
      const NodeId v = topo[pos];
      const std::uint32_t bv = s.blocks[v];
      for (std::uint32_t i = ph[v]; i < ph[v + 1]; ++i) {
        const std::uint32_t bq = s.blocks[pt[i]];
        if (bq != bv) s.qtgt[s.qcur[bq]++] = bv;
      }
    }
    s.stack.clear();
    for (std::size_t y = 1; y < nblocks; ++y)
      if (s.indeg[y] == 0) s.stack.push_back(static_cast<std::uint32_t>(y));
    s.stack.push_back(0);  // B_⊥ drains first
    std::size_t drained = 0;
    while (!s.stack.empty()) {
      const std::uint32_t b = s.stack.back();
      s.stack.pop_back();
      ++drained;
      if (order != nullptr) order->push_back(b);
      for (std::uint32_t i = s.qhead[b]; i < s.qhead[b + 1]; ++i) {
        const std::uint32_t y = s.qtgt[i];
        if (--s.indeg[y] == 0) s.stack.push_back(y);
      }
    }
    ok = drained == nblocks;
  }
  return ok;
}

std::uint32_t LocState::run_mask_models(LocArena& s) {
  const std::size_t n = ctx_->c->node_count();
  const Location l = loc_;
  const std::uint32_t P = consumed_;
  const std::span<const NodeId> prefix(ctx_->topo->data(), P);
  const std::size_t nblocks = writers_.size() + 1;

  std::uint32_t violated = 0;
  const auto record = [&](std::uint32_t bit, std::uint32_t b, NodeId v) {
    violated |= bit;
    witness_[static_cast<std::size_t>(std::countr_zero(bit)) - 2] = {b, v};
    if (first_mask_ == 0) first_mask_ = bit;
  };

  // NN/NW/WN/WW: per-node block masks, 256 blocks per sweep batch. For
  // a block b with writer x (b ≥ 1) and a candidate v ∉ B_b:
  //   WN breaks iff x ≺ v and some member of B_b succeeds v;
  //   NN breaks iff some member of B_b both precedes and succeeds v
  //       (plus the u = ⊥ branch for b = 0);
  //   NW/WW are the same with v restricted to writers of l.
  // A[v]/D[v]/W[v] = blocks with a member strictly before v / a member
  // strictly after v / their writer strictly before v — pure mask
  // arithmetic over the shared W=4 sweep kernels, restricted to the
  // consumed prefix (rows of unarrived nodes stay zero and contribute
  // nothing to either sweep direction; an unarrived writer's block can
  // never violate, because x ≺ v with v arrived would force x into the
  // downward-closed prefix).
  std::uint32_t remaining = ctx_->models & kMaskModels;
  const bool need_anc = (remaining & (kSuiteNN | kSuiteNW)) != 0;
  const bool need_wri = (remaining & (kSuiteWN | kSuiteWW)) != 0;
  const std::size_t nbatches = (nblocks + kSweepBits - 1) / kSweepBits;
  s.desc.resize(n * kSweepWords);
  if (need_anc) s.anc.resize(n * kSweepWords);
  if (need_wri) s.wri.resize(n * kSweepWords);

  for (std::size_t g = 0; g < nbatches && remaining != 0; ++g) {
    const std::uint32_t base = static_cast<std::uint32_t>(g * kSweepBits);
    if (need_anc) std::fill(s.anc.begin(), s.anc.end(), 0);
    if (need_wri) std::fill(s.wri.begin(), s.wri.end(), 0);
    std::fill(s.desc.begin(), s.desc.end(), 0);
    for (NodeId u = 0; u < n; ++u) {
      if (ctx_->pos(u) >= P) continue;
      const std::uint32_t b = s.blocks[u];
      const std::uint32_t rel = b - base;  // unsigned wrap culls b < base
      if (rel >= kSweepBits) continue;
      const std::size_t at = u * kSweepWords + (rel >> 6);
      const std::uint64_t bit = std::uint64_t{1} << (rel & 63);
      if (need_anc) s.anc[at] |= bit;
      s.desc[at] |= bit;
      // A writer always sits in its own block, so the writer bit of
      // block b belongs to node writers[b-1] and nobody else.
      if (need_wri && b != 0 && writers_[b - 1] == u) s.wri[at] |= bit;
    }
    const Dag& dag = ctx_->c->dag();
    if (need_anc && need_wri) {
      sweep_forward2_w4(dag, prefix, s.anc.data(), s.wri.data(), ctx_->simd);
    } else if (need_anc) {
      sweep_forward_w4(dag, prefix, s.anc.data(), ctx_->simd);
    } else {
      sweep_forward_w4(dag, prefix, s.wri.data(), ctx_->simd);
    }
    sweep_backward_w4(dag, prefix, s.desc.data(), ctx_->simd);

    for (std::size_t lane = 0; lane < kSweepWords && remaining != 0;
         ++lane) {
      const std::uint32_t lbase = base + static_cast<std::uint32_t>(lane * 64);
      if (lbase >= nblocks) break;
      const std::uint64_t bot_bit = lbase == 0 ? std::uint64_t{1} : 0;
      for (NodeId v = 0; v < n && remaining != 0; ++v) {
        if (ctx_->pos(v) >= P) continue;
        const std::uint32_t rel = s.blocks[v] - lbase;
        const std::uint64_t not_self =
            ~(rel < 64 ? std::uint64_t{1} << rel : std::uint64_t{0});
        const std::uint64_t d = s.desc[v * kSweepWords + lane];
        const bool v_writes = ctx_->writes_loc(v, l);
        if (need_wri) {
          const std::uint64_t bad =
              s.wri[v * kSweepWords + lane] & d & not_self;
          if (bad != 0) {
            const std::uint32_t b =
                lbase + static_cast<std::uint32_t>(std::countr_zero(bad));
            if ((remaining & kSuiteWN) != 0) record(kSuiteWN, b, v);
            if ((remaining & kSuiteWW) != 0 && v_writes) record(kSuiteWW, b, v);
            remaining &= ~violated;
          }
        }
        if ((remaining & (kSuiteNN | kSuiteNW)) != 0) {
          const std::uint64_t bad =
              (s.anc[v * kSweepWords + lane] | bot_bit) & d & not_self;
          if (bad != 0) {
            const std::uint32_t b =
                lbase + static_cast<std::uint32_t>(std::countr_zero(bad));
            if ((remaining & kSuiteNN) != 0) record(kSuiteNN, b, v);
            if ((remaining & kSuiteNW) != 0 && v_writes) record(kSuiteNW, b, v);
            remaining &= ~violated;
          }
        }
      }
    }
  }
  return violated;
}

std::uint32_t LocState::violations(LocArena& arena) {
  if (fail_pos_ != kLocNoPos) return 0;
  std::uint32_t violated = 0;
  const std::uint32_t want_masks = ctx_->models & kMaskModels;
  if ((lc_dirty_ && !lc_violated_) || want_masks != 0) fill_blocks(arena);
  if ((ctx_->models & kSuiteLC) != 0 &&
      (lc_violated_ || (lc_dirty_ && !rebuild_lc_quotient(arena))))
    violated |= kSuiteLC;
  if (ctx_->fresh && fresh_bad_) violated |= kSuiteFresh;
  first_mask_ = 0;
  if (want_masks != 0) violated |= run_mask_models(arena);
  return violated;
}

LocState::Witness LocState::witness(std::uint32_t bit) const {
  CCMM_ASSERT((bit & kMaskModels) != 0 && std::has_single_bit(bit));
  return witness_[static_cast<std::size_t>(std::countr_zero(bit)) - 2];
}

std::string LocState::describe(std::uint32_t violated) const {
  // The row explains the first violation found: LC, then freshness,
  // then the mask model whose witness came first.
  const Location l = loc_;
  if ((violated & kSuiteLC) != 0)
    return format("LC violated at location %u: the Φ-block quotient admits "
                  "no serialization with B_⊥ first",
                  l);
  if ((violated & kSuiteFresh) != 0)
    return format("freshness violated at location %u: node %u observes ⊥ "
                  "although a write precedes it",
                  l, fresh_node_);
  if (first_mask_ == 0) return {};
  const Witness w = witness(first_mask_);
  const NodeId x = w.block == 0 ? kBottom : writers_[w.block - 1];
  const std::string u_str = x == kBottom ? std::string("_") : format("%u", x);
  switch (first_mask_) {
    case kSuiteWN:
      return format("WN violated at location %u: u=%u, v=%u (the write "
                    "precedes v, Φ⁻¹(%u) reaches past it)",
                    l, x, w.v, x);
    case kSuiteWW:
      return format("WW violated at location %u: u=%u, v=%u", l, x, w.v);
    case kSuiteNN:
      return format("NN violated at location %u: u=%s, v=%u (v sits between "
                    "members of the same Φ-block)",
                    l, u_str.c_str(), w.v);
    default:
      return format("NW violated at location %u: u=%s, v=%u", l,
                    u_str.c_str(), w.v);
  }
}

void LocState::finalize_into(LocationCheck& out, LocArena& arena) {
  out = LocationCheck{};
  out.loc = loc_;
  out.writers = writers_.size();
  if (fail_pos_ != kLocNoPos) {
    out.valid = false;
    out.detail = loc_fail_detail(fail_kind_, loc_, fail_u_, fail_x_);
  } else {
    const std::uint32_t violated = violations(arena);
    out.detail = describe(violated);
    out.violated = fold_composites(violated, ctx_->checked);
  }
  arena.note_peak();
}

bool LocState::lc_block_order(LocArena& arena,
                              std::vector<std::uint32_t>& order) const {
  CCMM_ASSERT((ctx_->models & kSuiteLC) != 0);
  order.clear();
  if (fail_pos_ != kLocNoPos || lc_violated_) return false;
  if (lc_dirty_) {
    fill_blocks(arena);
    return rebuild_lc_quotient(arena, &order);
  }
  // Clean: no quotient edge runs against the committed order, and B_⊥
  // holds position 0, so sorting by drain position is a Kahn order.
  order.resize(drain_pos_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return drain_pos_[a] < drain_pos_[b];
  });
  return true;
}

std::size_t LocState::memory_bytes() const noexcept {
  return drain_pos_.capacity() * sizeof(std::uint32_t) +
         shadow_.memory_bytes();
}

}  // namespace ccmm
