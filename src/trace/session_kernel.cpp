#include "trace/session_kernel.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <span>

#include "util/numa.hpp"
#include "util/resource.hpp"
#include "util/str.hpp"

namespace ccmm {
namespace {

using Clock = std::chrono::steady_clock;

double millis_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Below this many node visits a span runs on the caller thread: the
/// pool round trip would cost more than the work it spreads.
constexpr std::size_t kPipelineMinNodes = std::size_t{1} << 14;

/// The oracle kind make_oracle would pick, when that is decidable
/// without building anything — the lazy path still reports it. Empty
/// means unpredictable (kAuto's chain-cover probe), so build eagerly.
std::string predicted_oracle_kind(const Computation& c,
                                  const OracleOptions& options) {
  switch (options.choice) {
    case OracleChoice::kClosure:
      return "closure";
    case OracleChoice::kSpOrder:
      return "sp-order";
    case OracleChoice::kChain:
      return "chain";
    case OracleChoice::kAuto:
      break;
  }
  const SpStructure* sp = c.sp_structure().get();
  if (sp != nullptr && sp->node_count == c.node_count()) return "sp-order";
  if (c.node_count() <= options.closure_threshold) return "closure";
  return {};
}

/// Heap estimate for one std::map node holding an unwritten location.
constexpr std::size_t kMapNodeBytes = 64;

/// The column fill_column builds for written location `li` from records
/// that all agreed with its carried write — so every non-write there
/// observes the carried write — given only their nodes, in arrival
/// order.
void witnessed_column(const std::uint32_t* index, std::uint32_t li,
                      const NodeId* arrival, std::size_t count, NodeId* col,
                      NodeId& last) {
  const std::uint32_t self_write = li << 1 | 1u;
  NodeId carried = last;
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId u = arrival[i];
    if (index[u] == self_write) carried = u;
    col[u] = carried;
  }
  last = carried;
}

}  // namespace

namespace detail {

std::vector<std::uint32_t> stable_seq_order(const Trace& trace) {
  const TraceRecords& ev = trace.events;
  std::vector<std::uint32_t> order;
  for (std::size_t i = 1; i < ev.size(); ++i) {
    if (ev[i].seq >= ev[i - 1].seq) continue;
    order.resize(ev.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return ev[a].seq < ev[b].seq;
                     });
    break;
  }
  return order;
}

void for_each_seq_span(
    const Trace& trace,
    const std::function<bool(const BinaryTraceEvent*, std::size_t)>& f) {
  const std::vector<std::uint32_t> order = stable_seq_order(trace);
  const std::size_t total = trace.events.size();
  std::vector<BinaryTraceEvent> gathered;
  for (std::size_t k = 0; k < total; k += kChunkNodes) {
    const std::size_t m = std::min<std::size_t>(total - k, kChunkNodes);
    const BinaryTraceEvent* span = trace.events.data() + k;
    if (!order.empty()) {
      gathered.resize(m);
      for (std::size_t i = 0; i < m; ++i)
        gathered[i] = trace.events[order[k + i]];
      span = gathered.data();
    }
    if (!f(span, m)) return;
  }
}

EventValidator::EventValidator(const Computation& c)
    : pred_(c.dag().pred_rows()), arrived_(c.node_count(), 0) {}

std::string EventValidator::rejection(const BinaryTraceEvent& e) const {
  const std::size_t n = arrived_.size();
  const NodeId u = e.node;
  const auto seq = static_cast<unsigned long long>(e.seq);
  if (u >= n) return format("event seq=%llu names unknown node %u", seq, u);
  if (e.observed != kBottom && e.observed >= n)
    return format("event seq=%llu observes unknown node %u", seq, e.observed);
  if (e.reserved != 0)
    return format("event seq=%llu has a nonzero reserved field", seq);
  if (e.seq < last_seq_)
    return format(
        "event seq=%llu arrives after seq=%llu: online streams must be "
        "seq-ordered",
        seq, static_cast<unsigned long long>(last_seq_));
  if (arrived_[u] != 0)
    return format("node %u appears in more than one event", u);
  // Name the smallest late predecessor: the message must not depend on
  // adjacency-list order (a computation round-tripped through text may
  // regroup its edges).
  NodeId late = u;  // sentinel: u is never its own predecessor
  for (std::uint32_t k = pred_.off[u]; k < pred_.off[u + 1]; ++k) {
    const NodeId q = pred_.tgt[k];
    if (arrived_[q] == 0 && (late == u || q < late)) late = q;
  }
  return format("trace order flips dag edge %u -> %u (node %u ran first)",
                late, u, u);
}

void fill_column(const std::uint32_t* index, std::uint32_t li,
                 const BinaryTraceEvent* events, std::size_t count,
                 std::size_t n, NodeId* col, NodeId& last) {
  const std::uint32_t self = li << 1;
  NodeId carried = last;
  for (std::size_t i = 0; i < count; ++i) {
    const BinaryTraceEvent& e = events[i];
    const NodeId u = e.node;
    if (u >= n) continue;
    const std::uint32_t a = index[u];
    if ((a & ~1u) != self) {
      if (carried != kBottom) col[u] = carried;
    } else if ((a & 1u) != 0) {
      col[u] = u;
      carried = u;
    } else if (e.observed != kBottom && e.observed < n) {
      col[u] = e.observed;
    }
  }
  last = carried;
}

}  // namespace detail

using detail::kChunkNodes;

/// One written location. Witnessed, it is carried_[index] alone; once
/// materialized, the dense Φ column the stream fills (unused when the
/// states point at an observer's columns) plus its LocState.
struct CheckSession::Loc {
  Location loc = 0;
  std::span<const NodeId> writers;  // set by prepare_kernel()
  bool materialized = false;
  /// Materialized by the current feed: advance() rebuilds the column
  /// from the arrival order, then fills it from record `from` on.
  bool rebuild = false;
  std::size_t from = 0;
  std::vector<NodeId> col;
  LocState state;
  NodeId last_write = kBottom;  // carried across feeds by fill_column
  double millis = 0.0;          // kernel time spent on this location
};

/// A fixed set of locations (indices into states_, ascending) and the
/// scratch arena their kernels share. The stage times are the current
/// span's, folded into the session totals after each span.
struct CheckSession::Shard {
  std::vector<std::uint32_t> locs;
  LocArena arena;
  double ingest_ms = 0.0;
  double kernel_ms = 0.0;
  double report_ms = 0.0;
};

CheckSession::CheckSession(Computation c, SessionOptions options)
    : owned_(std::make_unique<Computation>(std::move(c))),
      c_(owned_.get()),
      opts_(std::move(options)),
      validator_(*owned_) {
  setup();
}

CheckSession::CheckSession(const Computation* c,
                           const LargeCheckOptions& options)
    : c_(c),
      pool_(options.pool),
      parallel_(options.parallel),
      progress_(options.progress),
      validator_(*c) {
  opts_.models = options.models;
  opts_.oracle = options.oracle;
  opts_.simd = options.simd;
  setup();
}

void CheckSession::setup() {
  const auto t0 = Clock::now();
  n_ = c_->node_count();
  checked_ = opts_.models & kLargeCheckExt;

  // The oracle is lazy: condition 2.2 only consults it for pairs whose
  // observed write sits later in the scan order, and on trace-shaped
  // streams that set is empty — the build (often the largest fixed
  // cost of a postmortem) then never happens. Only kAuto's chain-cover
  // probe is unpredictable; that one case builds eagerly.
  predicted_oracle_ = predicted_oracle_kind(*c_, opts_.oracle);
  if (predicted_oracle_.empty()) {
    const auto t_oracle = Clock::now();
    oracle_ = std::make_unique<LazyOracle>(
        make_oracle(c_->dag(), c_->sp_structure().get(), opts_.oracle));
    eager_oracle_ms_ = millis_since(t_oracle);
  } else {
    const Computation* cp = c_;
    const OracleOptions oopts = opts_.oracle;
    oracle_ = std::make_unique<LazyOracle>([cp, oopts] {
      return make_oracle(cp->dag(), cp->sp_structure().get(), oopts);
    });
  }

  // The scan order: ids when topological (prepare_kernel() builds the
  // identity array the LocStates read), else the dag's canonical
  // topological order. The watermark advances along THIS order
  // whatever order events arrive in.
  if (!c_->dag().ids_topological()) {
    topo_ = c_->dag().topological_order();
    posv_.resize(n_);
    for (std::uint32_t p = 0; p < n_; ++p) posv_[topo_[p]] = p;
  }

  // The composites expand to the base bits their scans decide; the
  // per-location fold clips back to the requested mask.
  std::uint32_t base = checked_ & kLargeCheckAll;
  if ((checked_ & kSuiteWNPlus) != 0) base |= kSuiteWN;
  if ((checked_ & kSuiteNNPlus) != 0) base |= kSuiteNN;
  const bool want_fresh = (checked_ & kLargeCheckPlus) != 0;
  want_masks_ = (base & (kSuiteNN | kSuiteNW | kSuiteWN | kSuiteWW)) != 0;

  // The node table the agreement check and the column fill run on, and
  // the writer counts. The writer slices only the kernel reads wait for
  // prepare_kernel(); a stream whose locations all stay witnessed never
  // builds them.
  index_ = LocationIndex(*c_);

  kctx_ = LocKernelCtx{c_,
                       oracle_.get(),
                       &topo_,
                       posv_.empty() ? nullptr : posv_.data(),
                       nullptr,
                       nullptr,
                       base,
                       checked_,
                       want_fresh,
                       opts_.simd.value_or(active_simd_level())};

  // One state per written location, in location order, all witnessed.
  // A read-only location needs none: its all-⊥ column passes
  // everything.
  states_.resize(index_.size());
  for (std::size_t i = 0; i < states_.size(); ++i) {
    states_[i] = std::make_unique<Loc>();
    states_[i]->loc = index_.location(i);
  }
  witnessed_ = states_.size();
  carried_.assign(states_.size(), kBottom);

  // Pack the states onto shards in longest-processing-time order. Cost
  // model: every location pays its share of each span (1 unit) plus one
  // sweep per 256-block batch at verdict time when mask models run.
  const std::size_t nshards =
      states_.empty()
          ? 0
          : (parallel_ ? std::min(states_.size(),
                                  (pool_ != nullptr ? *pool_ : global_pool())
                                      .size())
                       : 1);
  shards_ = std::vector<Shard>(nshards);
  std::vector<std::size_t> cost(states_.size());
  for (std::size_t i = 0; i < states_.size(); ++i)
    cost[i] = 1 + (want_masks_
                       ? (index_.writer_count(i) + kSweepBits) / kSweepBits
                       : 0);
  std::vector<std::uint32_t> by_cost(states_.size());
  std::iota(by_cost.begin(), by_cost.end(), 0u);
  std::stable_sort(by_cost.begin(), by_cost.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return cost[a] > cost[b];
                   });
  std::vector<std::size_t> load(nshards, 0);
  for (const std::uint32_t i : by_cost) {
    const std::size_t s = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    shards_[s].locs.push_back(i);
    load[s] += cost[i];
  }
  for (Shard& sh : shards_) std::sort(sh.locs.begin(), sh.locs.end());

  group_build_ms_ = millis_since(t0);
  active_ms_ = group_build_ms_;
}

CheckSession::~CheckSession() = default;

void CheckSession::prepare_kernel() {
  if (kernel_ready_) return;
  kernel_ready_ = true;
  const auto t0 = Clock::now();
  if (posv_.empty()) {
    topo_.resize(n_);
    std::iota(topo_.begin(), topo_.end(), NodeId{0});
  }
  // The writer slices and, in the same pass, the writer→block and
  // writer→location maps: a node writes at most one location, so two
  // n-entry arrays serve every state at once.
  wblock_.assign(n_, 0);
  wloc_.assign(n_, 0);
  index_.build_csr(false, [&](NodeId u, std::uint32_t i, std::uint32_t k) {
    wblock_[u] = k + 1;
    wloc_[u] = index_.location(i);
  });
  for (std::size_t i = 0; i < states_.size(); ++i)
    states_[i]->writers = index_.writers(i);
  kctx_.wblock = wblock_.data();
  kctx_.wloc = wloc_.data();
  group_build_ms_ += millis_since(t0);
}

void CheckSession::fail_stream(std::string why) { error_ = std::move(why); }

void CheckSession::note_unwritten(Location l, std::uint32_t pos, NodeId u,
                                  NodeId x) {
  Unwritten& w = unwritten_[l];
  if (pos < w.pos) w = Unwritten{pos, u, x};
  unwritten_min_pos_ = std::min(unwritten_min_pos_, pos);
}

bool CheckSession::for_each_shard(std::size_t span,
                                  const std::function<void(Shard&)>& work) {
  // More than one shard implies parallel_ and a pool of at least two.
  if (shards_.size() < 2 || span < kPipelineMinNodes) {
    for (Shard& sh : shards_) work(sh);
    return false;
  }
  sharded_ = true;
  ThreadPool& pool = pool_ != nullptr ? *pool_ : global_pool();
  // On multi-node boxes each shard runs pinned to its NUMA node, so its
  // arena and columns are first-touched (and re-read every span) on
  // the node executing it. Single-node topologies skip the binding.
  const NumaTopology& numa = numa_topology();
  if (numa.multi_node) {
    const std::vector<std::size_t> plan =
        plan_shard_placement(shards_.size(), numa);
    pool.parallel_for(shards_.size(), [&](std::size_t s) {
      const NumaBinding bind(numa, plan[s]);
      work(shards_[s]);
    });
  } else {
    pool.parallel_for(shards_.size(),
                      [&](std::size_t s) { work(shards_[s]); });
  }
  return true;
}

void CheckSession::advance(const BinaryTraceEvent* events,
                           std::size_t count, std::size_t arrived) {
  while (watermark_ < n_ && validator_.arrived(scan_node(watermark_)))
    ++watermark_;
  const std::uint32_t p1 = watermark_;
  consumed_ = p1;
  // The work in node visits, over the materialized locations alone: a
  // witnessed location has nothing to fill, advance or replay.
  std::size_t work = 0;
  for (const std::unique_ptr<Loc>& s : states_) {
    if (!s->materialized) continue;
    work += (s->rebuild ? arrived + s->from : 0) + (count - s->from) +
            (p1 - s->state.consumed());
  }
  if (work == 0) return;
  prepare_kernel();
  const bool on_pool = for_each_shard(work, [&](Shard& sh) {
    const auto t0 = Clock::now();
    std::uint32_t q0 = p1;  // the lowest position a state resumes from
    for (const std::uint32_t i : sh.locs) {
      Loc& s = *states_[i];
      if (!s.materialized) continue;
      if (s.rebuild) {
        s.col.assign(n_, kBottom);
        witnessed_column(index_.table().data(), i, arrival_.data(),
                         arrived + s.from, s.col.data(), s.last_write);
        s.state.init(kctx_, s.loc, &s.col, s.writers);
        s.rebuild = false;
      }
      if (s.from < count)
        detail::fill_column(index_.table().data(), i, events + s.from,
                            count - s.from, n_, s.col.data(), s.last_write);
      s.from = 0;
      q0 = std::min(q0, s.state.consumed());
    }
    const auto t1 = Clock::now();
    // Chunk-major: a chunk's scan slots and pred edges stay
    // cache-resident while every location of the shard walks them. A
    // location materialized by this feed replays from position 0.
    while (q0 < p1) {
      const std::uint32_t q1 = q0 + std::min(p1 - q0, kChunkNodes);
      for (const std::uint32_t i : sh.locs) {
        Loc& s = *states_[i];
        if (!s.materialized || s.state.consumed() >= q1) continue;
        const auto ta = Clock::now();
        s.state.advance(s.state.consumed(), q1, sh.arena);
        s.millis += millis_since(ta);
      }
      q0 = q1;
    }
    sh.ingest_ms = std::chrono::duration<double, std::milli>(t1 - t0)
                       .count();
    sh.kernel_ms = millis_since(t1);
  });
  // Sharded spans overlap: charge the slowest shard, not the sum.
  double ingest = 0.0;
  double kernel = 0.0;
  for (const Shard& sh : shards_) {
    ingest = on_pool ? std::max(ingest, sh.ingest_ms) : ingest + sh.ingest_ms;
    kernel = on_pool ? std::max(kernel, sh.kernel_ms) : kernel + sh.kernel_ms;
  }
  ingest_ms_ += ingest;
  kernel_ms_ += kernel;
}

bool CheckSession::feed(const BinaryTraceEvent* events, std::size_t count) {
  if (failed()) return false;
  if (count == 0) return true;
  const auto t0 = Clock::now();
  const std::size_t arrived = arrival_.size();
  const bool keep_arrival = witnessed_ > 0;
  // Geometric growth capped at n (a validated stream has one record per
  // node): a complete stream holds exactly 4 B per node.
  if (keep_arrival && arrival_.capacity() < arrived + count)
    arrival_.reserve(std::min<std::size_t>(
        n_, std::max(2 * arrival_.capacity(), arrived + count)));
  // One pass: each record is validated, appended to the arrival order
  // and checked for agreement before the next is read. A rejection
  // fails the session sticky before events_seen_, retained_ or the
  // kernel move, so nothing the batch did before it can be observed.
  std::string why;
  for (std::size_t i = 0; i < count; ++i) {
    const BinaryTraceEvent& e = events[i];
    if (!validator_.accept(e, why)) {
      fail_stream(std::move(why));
      return false;
    }
    if (keep_arrival) arrival_.push_back(e.node);
    const std::uint32_t a = index_[e.node];
    if (a == kNoWrittenLoc) {
      // A read observing a never-written location fails 2.1 there;
      // only the earliest such observation per location decides its
      // row.
      if (e.observed == kBottom) continue;
      const Op o = c_->op(e.node);
      if (o.is_read())
        note_unwritten(o.loc, kctx_.pos(e.node), e.node, e.observed);
      continue;
    }
    // Writes and reads of the carried write agree; the first read that
    // observed anything else materializes its location.
    const std::uint32_t li = a >> 1;
    if ((a & 1u) != 0) {
      carried_[li] = e.node;
    } else if (e.observed != carried_[li] && !states_[li]->materialized) {
      Loc& s = *states_[li];
      s.materialized = true;
      s.rebuild = true;
      s.from = i;
      --witnessed_;
    }
  }
  events_seen_ += count;
  if (opts_.retain_events)
    retained_.insert(retained_.end(), events, events + count);
  ingest_ms_ += millis_since(t0);
  advance(events, count, arrived);
  // Nothing can materialize anymore: the arrival order has served.
  if (witnessed_ == 0) std::vector<NodeId>().swap(arrival_);
  active_ms_ += millis_since(t0);
  return true;
}

LargeCheckReport CheckSession::run_trace(const Trace& trace, bool seq_order,
                                         double spent_ms) {
  // Gathering a shuffled trace's spans in seq order, and a rejected
  // earlier attempt, are ingest work done outside feed(): charge them
  // there.
  const auto t0 = Clock::now();
  const double fed_before = active_ms_;
  const auto feed_span = [this](const BinaryTraceEvent* events,
                                std::size_t count) {
    if (!feed(events, count)) return false;
    if (progress_) progress_(consumed_, n_);
    return true;
  };
  if (seq_order) {
    detail::for_each_seq_span(trace, feed_span);
  } else {
    const std::size_t total = trace.events.size();
    for (std::size_t k = 0; k < total; k += kChunkNodes)
      if (!feed_span(trace.events.data() + k,
                     std::min<std::size_t>(total - k, kChunkNodes)))
        break;
  }
  const double outside =
      spent_ms + millis_since(t0) - (active_ms_ - fed_before);
  ingest_ms_ += outside;
  active_ms_ += outside;
  return finish();
}

LargeCheckReport CheckSession::run_observer(const ObserverFunction& phi) {
  const auto t0 = Clock::now();
  // Point every state at Φ's column (none stored: the all-⊥ column). A
  // stored column at a never-written location fails 2.1 at its first
  // non-⊥ entry in scan order, which is all its row needs.
  const std::vector<Location>& stored = phi.stored_locations();
  const auto unwritten_column = [&](std::size_t si) {
    const std::vector<NodeId>& col = phi.stored_column(si);
    for (std::uint32_t p = 0; p < n_; ++p) {
      const NodeId u = scan_node(p);
      if (col[u] == kBottom) continue;
      note_unwritten(stored[si], p, u, col[u]);
      return;
    }
  };
  // Every location is materialized on Φ's column: this entry point is
  // the independent kernel reference for the stream entries.
  prepare_kernel();
  const auto t_init = Clock::now();
  std::size_t si = 0;
  for (const std::unique_ptr<Loc>& s : states_) {
    while (si < stored.size() && stored[si] < s->loc) unwritten_column(si++);
    const std::vector<NodeId>* col = nullptr;
    if (si < stored.size() && stored[si] == s->loc)
      col = &phi.stored_column(si++);
    s->state.init(kctx_, s->loc, col, s->writers);
    s->materialized = true;
  }
  witnessed_ = 0;
  while (si < stored.size()) unwritten_column(si++);
  ingest_ms_ += millis_since(t_init);

  for (std::uint64_t p = 0; p < n_; p += kChunkNodes) {
    watermark_ = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(n_, p + kChunkNodes));
    advance(nullptr, 0, 0);
    if (progress_) progress_(consumed_, n_);
  }
  active_ms_ += millis_since(t0);
  return check();
}

SessionVerdict CheckSession::fast_verdict() const {
  SessionVerdict v;
  v.events = events_seen_;
  v.consumed = consumed_;
  if (failed()) {
    v.valid = false;
    return v;
  }
  if (unwritten_min_pos_ < consumed_) v.valid = false;
  std::uint32_t violated = 0;
  for (const std::unique_ptr<Loc>& s : states_) {
    if (!s->materialized) continue;  // witnessed: clean
    if (s->state.validity_failed()) v.valid = false;
    if (s->state.lc_known_violated()) violated |= kSuiteLC;
    if (s->state.freshness_known_violated()) violated |= kSuiteFresh;
  }
  if ((violated & kSuiteFresh) != 0)
    violated |= kSuiteWNPlus | kSuiteNNPlus;
  v.violated = violated & checked_;
  return v;
}

LargeCheckReport CheckSession::make_report(bool require_complete) {
  const auto t0 = Clock::now();
  LargeCheckReport report;
  report.checked = checked_;
  if (failed() || (require_complete && events_seen_ != n_)) {
    // Checked + detail only. An incomplete stream reports the
    // event-count mismatch the concatenated trace would produce —
    // without killing the session, so a late finish() can still
    // succeed.
    const std::string why =
        failed() ? error_
                 : format("trace has %zu events for %zu nodes",
                          static_cast<std::size_t>(events_seen_), n_);
    report.detail = "trace does not fit the computation: " + why;
    return report;
  }

  report.simd = simd_level_name(kctx_.simd);
  report.numa = numa_topology().to_string();
  report.groups_bytes = index_.csr_bytes();
  report.aux_bytes = aux_bytes();
  report.ingest_millis = ingest_ms_;
  report.group_build_millis = group_build_ms_;
  report.kernel_millis = kernel_ms_;

  // Rows in location order: the written states merged with the
  // never-written locations reads observed. An unwritten row fails 2.1
  // once its earliest observation is consumed and is clean before.
  report.locations.resize(states_.size() + unwritten_.size());
  std::vector<std::size_t> row(states_.size());
  {
    std::size_t r = 0;
    std::size_t i = 0;
    for (const auto& [l, w] : unwritten_) {
      while (i < states_.size() && states_[i]->loc < l) row[i++] = r++;
      LocationCheck& lc = report.locations[r++];
      lc.loc = l;
      if (w.pos < consumed_) {
        lc.valid = false;
        lc.detail = loc_fail_detail(LocFailKind::kNotAWrite, l, w.u, w.x);
      }
    }
    while (i < states_.size()) row[i++] = r++;
  }

  // A witnessed location's row is the clean row over any consumed
  // prefix. Finalize is O(1) per clean LC location; the mask sweeps
  // cost one pass over the consumed prefix per 256-block batch, and
  // that work decides whether the shards run on the pool.
  std::size_t sweeps = 0;
  if (want_masks_)
    for (const std::unique_ptr<Loc>& s : states_)
      if (s->materialized)
        sweeps += (s->writers.size() + kSweepBits) / kSweepBits;
  const auto tr = Clock::now();
  const bool on_pool = for_each_shard(sweeps * consumed_, [&](Shard& sh) {
    const auto ts = Clock::now();
    for (const std::uint32_t i : sh.locs) {
      Loc& s = *states_[i];
      LocationCheck& out = report.locations[row[i]];
      if (s.materialized) {
        const auto tf = Clock::now();
        s.state.finalize_into(out, sh.arena);
        out.millis = s.millis + millis_since(tf);
      } else {
        out.loc = s.loc;
        out.writers = index_.writer_count(i);
      }
    }
    sh.arena.note_peak();
    sh.report_ms = millis_since(ts);
  });
  report.report_millis = millis_since(tr);
  if (on_pool) {
    report.report_millis = 0.0;
    for (const Shard& sh : shards_)
      report.report_millis = std::max(report.report_millis, sh.report_ms);
  }

  std::size_t scratch = 0;
  for (const Shard& sh : shards_) {
    std::size_t bytes = sh.arena.peak_bytes;
    for (const std::uint32_t i : sh.locs)
      bytes += states_[i]->state.memory_bytes() +
               states_[i]->col.capacity() * sizeof(NodeId);
    scratch = std::max(scratch, bytes);
  }
  report.shards = shards_.size();
  report.pipelined = sharded_;
  report.scratch_peak_bytes = scratch;

  // Oracle accounting: real numbers when it was built (eagerly or on a
  // 2.2 flush), the predicted kind and zero bytes when the scan never
  // needed it.
  if (oracle_->built()) {
    report.oracle_kind = oracle_->get().kind();
    report.oracle_memory_bytes = oracle_->get().memory_bytes();
    report.oracle_build_millis = predicted_oracle_.empty()
                                     ? eager_oracle_ms_
                                     : oracle_->build_millis();
  } else {
    report.oracle_kind = predicted_oracle_;
  }

  report.valid_observer = true;
  std::uint32_t violated = 0;
  for (const LocationCheck& lc : report.locations) {
    if (!lc.valid) report.valid_observer = false;
    violated |= lc.violated;
    if (report.detail.empty() && !lc.detail.empty()) report.detail = lc.detail;
  }
  report.satisfied =
      report.valid_observer ? (report.checked & ~violated) : 0;
  report.peak_rss_bytes = current_peak_rss_bytes();
  if (n_ > 0)
    report.bytes_per_node =
        static_cast<double>(report.groups_bytes +
                            report.scratch_peak_bytes * report.shards +
                            report.aux_bytes + report.oracle_memory_bytes) /
        static_cast<double>(n_);
  active_ms_ += millis_since(t0);
  report.total_millis = active_ms_;
  return report;
}

LargeCheckReport CheckSession::check() { return make_report(false); }

LargeCheckReport CheckSession::finish() { return make_report(true); }

std::size_t CheckSession::aux_bytes() const noexcept {
  return index_.table_bytes() +
         (wblock_.capacity() + wloc_.capacity() + posv_.capacity()) *
             sizeof(std::uint32_t) +
         (topo_.capacity() + carried_.capacity() + arrival_.capacity()) *
             sizeof(NodeId) +
         validator_.memory_bytes() + unwritten_.size() * kMapNodeBytes;
}

std::size_t CheckSession::memory_bytes() const noexcept {
  std::size_t bytes = aux_bytes() +
                      retained_.capacity() * sizeof(BinaryTraceEvent) +
                      index_.csr_bytes();
  for (const Shard& sh : shards_)
    bytes += sh.arena.peak_bytes + sh.locs.capacity() * sizeof(std::uint32_t);
  for (const std::unique_ptr<Loc>& s : states_)
    bytes += sizeof(Loc) + s->col.capacity() * sizeof(NodeId) +
             s->state.memory_bytes();
  return bytes;
}

}  // namespace ccmm
