#include "construct/fixpoint.hpp"

#include <algorithm>
#include <utility>

#include "construct/extension.hpp"
#include "enumerate/canonical.hpp"
#include "util/rng.hpp"

namespace ccmm {

BoundedModelSet BoundedModelSet::restrict_model(const MemoryModel& model,
                                                const UniverseSpec& spec) {
  BoundedModelSet out;
  out.spec_ = spec;
  for_each_computation(spec, [&](const Computation& c) {
    // Freeze the reachability closure before the entry copies c, so
    // entries arrive frozen — the parallel drivers assert this before
    // fanning out.
    c.dag().ensure_closure();
    auto [it, fresh] = out.entries_.try_emplace(encode_computation(c));
    CCMM_ASSERT(fresh);
    (void)fresh;
    Entry& e = it->second;
    e.c = c;
    model.for_each_member_observer(c, [&](const ObserverFunction& phi) {
      e.phis.push_back(phi);
      e.alive.push_back(1);
      return true;
    });
    return true;
  });
  return out;
}

BoundedModelSet BoundedModelSet::restrict_model_quotient(
    const MemoryModel& model, const UniverseSpec& spec, ThreadPool* pool) {
  BoundedModelSet out;
  out.spec_ = spec;
  out.quotient_ = true;

  const auto fill = [&model](Entry& e, Computation&& rep,
                             std::uint64_t mult) {
    // Freeze before the move so the entry's computation carries the
    // closure (the parallel drivers assert entries arrive frozen); the
    // entry steals the representative's allocation — a frozen-closure
    // copy would cost ~4 heap blocks per node, dominating the restrict.
    rep.dag().ensure_closure();
    e.c = std::move(rep);
    e.multiplicity = mult;
    model.for_each_member_observer(e.c, [&](const ObserverFunction& phi) {
      e.phis.push_back(phi);
      e.alive.push_back(1);
      return true;
    });
  };

  if (pool == nullptr || pool->size() <= 1) {
    // Buffer the entries first so the map can be sized exactly once:
    // growing a hundred-thousand-entry table through its default rehash
    // ladder re-links every element ~18 times.
    std::vector<Entry> buffer;
    for (const DagClassShard& shard : dag_class_shards(spec))
      for_each_class_in_shard(
          shard, spec, [&](Computation&& rep, std::uint64_t mult) {
            buffer.emplace_back();
            fill(buffer.back(), std::move(rep), mult);
            return true;
          });
    out.entries_.reserve(buffer.size());
    for (Entry& e : buffer) {
      // Representatives arrive in canonical layout, so their plain
      // encoding doubles as the canonical class key.
      auto [it, fresh] =
          out.entries_.try_emplace(encode_computation(e.c), std::move(e));
      CCMM_ASSERT(fresh);
      (void)it;
      (void)fresh;
    }
    return out;
  }

  // Parallel path: computation classes never cross dag-class shards, so
  // each shard canonicalizes its labelings and enumerates member
  // observers independently; the serial merge cannot collide.
  const std::vector<DagClassShard> shards = dag_class_shards(spec);
  std::vector<std::vector<Entry>> results(shards.size());
  pool->parallel_for(shards.size(), [&](std::size_t s) {
    for_each_class_in_shard(
        shards[s], spec, [&](Computation&& rep, std::uint64_t mult) {
          results[s].emplace_back();
          fill(results[s].back(), std::move(rep), mult);
          return true;
        });
  });
  std::size_t total = 0;
  for (const auto& shard_entries : results) total += shard_entries.size();
  out.entries_.reserve(total);
  for (auto& shard_entries : results)
    for (Entry& e : shard_entries) {
      const std::string key = encode_computation(e.c);
      auto [it, fresh] = out.entries_.try_emplace(key, std::move(e));
      CCMM_ASSERT(fresh);
      (void)it;
      (void)fresh;
    }
  return out;
}

std::size_t BoundedModelSet::live_count() const {
  std::size_t n = 0;
  for (const auto& [key, e] : entries_)
    for (const char a : e.alive)
      if (a) n += static_cast<std::size_t>(e.multiplicity);
  return n;
}

std::size_t BoundedModelSet::live_count_at_size(std::size_t n) const {
  std::size_t total = 0;
  for (const auto& [key, e] : entries_) {
    if (e.c.node_count() != n) continue;
    for (const char a : e.alive)
      if (a) total += static_cast<std::size_t>(e.multiplicity);
  }
  return total;
}

bool BoundedModelSet::contains_pair(const Computation& c,
                                    const ObserverFunction& phi) const {
  if (quotient_) {
    if (phi.node_count() != c.node_count()) return false;
    const CanonicalForm cf = canonical_form(c);
    const auto it = entries_.find(cf.encoding);
    if (it == entries_.end()) return false;
    const Entry& e = it->second;
    const ObserverFunction t = transport_observer(phi, cf.map);
    for (std::size_t i = 0; i < e.phis.size(); ++i)
      if (e.alive[i] && e.phis[i] == t) return true;
    return false;
  }
  const auto it = entries_.find(encode_computation(c));
  if (it == entries_.end()) return false;
  const Entry& e = it->second;
  for (std::size_t i = 0; i < e.phis.size(); ++i)
    if (e.alive[i] && e.phis[i] == phi) return true;
  return false;
}

void BoundedModelSet::for_each_live(
    const std::function<bool(const Computation&, const ObserverFunction&)>&
        visit) const {
  for (const auto& [key, e] : entries_)
    for (std::size_t i = 0; i < e.phis.size(); ++i)
      if (e.alive[i] && !visit(e.c, e.phis[i])) return;
}

namespace {

constexpr std::uint32_t kNoPair = UINT32_MAX;

/// The judging problem with the enumeration factored out: every pair of
/// the entry table gets a dense id, every non-boundary pair becomes a
/// task, and each task carries one answer list per in-universe one-node
/// extension of its computation — the ids of the target pairs whose
/// observer extends the task's observer on that extension. Once built,
/// a pair is live in the greatest fixpoint iff every one of its answer
/// lists keeps at least one live id, so the worklist schedule reduces
/// to bitset probes.
///
/// Answer resolution is a pullback, not a search: the extension
/// observers of (C, Φ) are exactly the valid observers of the extension
/// that restrict to Φ on C's nodes (extension.hpp), so the target
/// observers answering (C, Φ) are those whose transport back along the
/// extension's relabeling restricts to Φ. Grouping each entry's tasks
/// by encode_observer lets one scan of the target's observer list
/// resolve the answer lists of every task of the entry at once —
/// against the per-(task, extension) candidate enumeration this
/// amortizes by the entry's observer count.
struct ConstraintGraph {
  struct Task {
    BoundedModelSet::Entry* entry = nullptr;
    std::uint32_t phi_index = 0;
    std::uint32_t pair_id = 0;
    /// The answer lists, flattened: list j (the dense pair ids
    /// answering extension j) spans answer_ids[list_begin(j) ..
    /// answer_ends[j]). Extensions whose target entry left the universe
    /// (labeling filter) impose no constraint and get no slot. One flat
    /// array instead of a vector per extension keeps the judging scans
    /// on one cache line and the build/teardown allocation-free per
    /// slot.
    std::vector<std::uint32_t> answer_ids;
    std::vector<std::uint32_t> answer_ends;

    [[nodiscard]] std::uint32_t list_begin(std::size_t j) const {
      return j == 0 ? 0 : answer_ends[j - 1];
    }
    [[nodiscard]] std::size_t list_count() const {
      return answer_ends.size();
    }
  };

  std::vector<BoundedModelSet::Entry*> entries;
  std::vector<std::uint32_t> entry_base;   // parallel to `entries`
  std::vector<std::uint32_t> first_task;   // parallel; kNoPair = boundary
  std::uint32_t total_pairs = 0;
  DynBitset alive;     // by pair id
  DynBitset boundary;  // by pair id; boundary pairs never die
  std::vector<Task> tasks;
};

ConstraintGraph build_graph(BoundedModelSet& set, ThreadPool* pool) {
  const bool quotient = set.quotient();
  const std::vector<Op> alphabet = op_alphabet(set.spec().nlocations);

  ConstraintGraph g;
  std::unordered_map<const BoundedModelSet::Entry*, std::uint32_t> base_of;
  for (auto& [key, e] : set.entries()) {
    CCMM_ASSERT(e.c.dag().closure_frozen());
    base_of.emplace(&e, g.total_pairs);
    g.entries.push_back(&e);
    g.entry_base.push_back(g.total_pairs);
    g.total_pairs += static_cast<std::uint32_t>(e.phis.size());
  }
  g.alive = DynBitset(g.total_pairs);
  g.boundary = DynBitset(g.total_pairs);
  g.first_task.assign(g.entries.size(), kNoPair);
  for (std::size_t ei = 0; ei < g.entries.size(); ++ei) {
    const BoundedModelSet::Entry& e = *g.entries[ei];
    const bool boundary = e.c.node_count() >= set.spec().max_nodes;
    for (std::size_t i = 0; i < e.phis.size(); ++i) {
      if (e.alive[i]) g.alive.set(g.entry_base[ei] + i);
      if (boundary) g.boundary.set(g.entry_base[ei] + i);
    }
    if (boundary) continue;
    g.first_task[ei] = static_cast<std::uint32_t>(g.tasks.size());
    for (std::size_t i = 0; i < e.phis.size(); ++i)
      g.tasks.push_back({g.entries[ei], static_cast<std::uint32_t>(i),
                         g.entry_base[ei] + static_cast<std::uint32_t>(i),
                         {},
                         {}});
  }

  // Resolve one entry's answer lists: enumerate its in-universe
  // extensions once, and for each, scan the target's observers pulling
  // each back onto the entry — a hash hit on the entry's observer key
  // appends one answer id to that task's current list. Entries resolve
  // independently (pure reads of the shared table), so the parallel
  // drivers fan this out.
  const auto resolve_entry = [&](std::size_t ei) {
    const std::uint32_t t0 = g.first_task[ei];
    if (t0 == kNoPair) return;
    const BoundedModelSet::Entry& e = *g.entries[ei];
    if (e.phis.empty()) return;  // no tasks, nothing to resolve
    const std::size_t n_old = e.c.node_count();
    std::unordered_map<std::string, std::uint32_t> task_key;
    task_key.reserve(e.phis.size());
    for (std::size_t i = 0; i < e.phis.size(); ++i)
      task_key.emplace(encode_observer(e.phis[i]),
                       t0 + static_cast<std::uint32_t>(i));
    // Buffers reused across extensions and target observers. pull_key
    // writes into `key` exactly the bytes encode_observer would produce
    // for transport_observer(psi, from_rep).restricted(n_old) — the
    // transport and the restriction are fused into the encoding, so the
    // hot scan materializes no intermediate observers.
    std::vector<NodeId> from_rep;  // canonical id -> ext id
    std::string key;
    std::vector<char> col(n_old);
    const auto pull_key = [&](const ObserverFunction& psi) {
      key.assign(1, static_cast<char>(n_old));
      const std::size_t n_new = psi.node_count();
      const auto& locs = psi.stored_locations();
      for (std::size_t li = 0; li < locs.size(); ++li) {
        const auto& vals = psi.stored_column(li);
        std::fill(col.begin(), col.end(), static_cast<char>(0xff));
        bool active = false;
        for (std::size_t u = 0; u < n_new; ++u) {
          const NodeId ru =
              quotient ? from_rep[u] : static_cast<NodeId>(u);
          if (ru >= n_old) continue;  // the new node: dropped
          const NodeId v = vals[u];
          if (v == kBottom) continue;
          // Values may reference the dropped node (restricted()'s
          // documented contract); its id n_old fits the byte encoding.
          col[ru] = static_cast<char>(quotient ? from_rep[v] : v);
          active = true;
        }
        if (!active) continue;  // all-bottom column: absent from the key
        key.push_back(static_cast<char>(locs[li] & 0xff));
        key.append(col.data(), col.size());
      }
    };
    for_each_one_node_extension(
        e.c, alphabet, /*dedupe_by_closure=*/true,
        [&](const Computation& ext) {
          const BoundedModelSet::Entry* target = nullptr;
          if (quotient) {
            CanonicalForm cf = canonical_form(ext);
            const auto jt = set.entries().find(cf.encoding);
            if (jt == set.entries().end()) return true;  // filtered: no info
            target = &jt->second;
            from_rep.resize(cf.map.size());
            for (std::size_t u = 0; u < cf.map.size(); ++u)
              from_rep[cf.map[u]] = static_cast<NodeId>(u);
          } else {
            const auto jt = set.entries().find(encode_computation(ext));
            if (jt == set.entries().end()) return true;
            target = &jt->second;
          }
          const std::uint32_t target_base = base_of.find(target)->second;
          // One pull-back scan fills this extension's slot of every
          // task of the entry; sealing all the slots afterwards keeps
          // the flat lists aligned (slot j of every task closes before
          // slot j+1 of any task opens).
          for (std::size_t k = 0; k < target->phis.size(); ++k) {
            pull_key(target->phis[k]);
            const auto hit = task_key.find(key);
            if (hit == task_key.end()) continue;
            g.tasks[hit->second].answer_ids.push_back(
                target_base + static_cast<std::uint32_t>(k));
          }
          for (std::size_t i = 0; i < e.phis.size(); ++i) {
            ConstraintGraph::Task& t = g.tasks[t0 + i];
            t.answer_ends.push_back(
                static_cast<std::uint32_t>(t.answer_ids.size()));
          }
          return true;
        });
  };

  if (pool != nullptr) {
    pool->parallel_for(g.entries.size(), resolve_entry);
  } else {
    for (std::size_t ei = 0; ei < g.entries.size(); ++ei) resolve_entry(ei);
  }
  return g;
}

/// Write the engine's liveness back into the entry table and fill the
/// census stats.
void finish(const ConstraintGraph& g, BoundedModelSet& set,
            FixpointStats& stats) {
  for (std::size_t ei = 0; ei < g.entries.size(); ++ei) {
    BoundedModelSet::Entry& e = *g.entries[ei];
    for (std::size_t i = 0; i < e.phis.size(); ++i)
      e.alive[i] = g.alive.test(g.entry_base[ei] + i) ? 1 : 0;
  }
  stats.final_pairs = set.live_count();
}

/// The semi-naive worklist engine. The initial pass judges every task
/// once, choosing one live *support* answer per constraint (preferring
/// boundary answers, which never die and need no tracking) and
/// registering the task in the support's reverse dependency list. A
/// kill then re-judges only the constraints actually supported by the
/// dead pair: each first tries to repair onto another live answer, and
/// only a constraint with none left kills its pair and extends the
/// wave. Dependency edges are deleted lazily — an edge whose task died
/// or switched support is skipped when its source dies — which is sound
/// because dead pairs never resurrect, so every edge fires at most
/// once. Kills are monotone, so any processing order yields the same
/// fixpoint; waves keep the rounds/peak stats meaningful and give the
/// scramble hook a schedule to permute.
void run_worklist(ConstraintGraph& g, const FixpointOptions& options,
                  FixpointStats& stats) {
  struct Dep {
    std::uint32_t task;
    std::uint32_t constraint;
  };
  std::vector<std::vector<Dep>> deps(g.total_pairs);
  std::vector<std::vector<std::uint32_t>> support(g.tasks.size());

  const auto choose = [&](const ConstraintGraph::Task& task, std::size_t j) {
    const std::uint32_t begin = task.list_begin(j);
    const std::uint32_t end = task.answer_ends[j];
    for (std::uint32_t a = begin; a < end; ++a)
      if (g.boundary.test(task.answer_ids[a])) return task.answer_ids[a];
    for (std::uint32_t a = begin; a < end; ++a)
      if (g.alive.test(task.answer_ids[a])) return task.answer_ids[a];
    return kNoPair;
  };

  std::vector<std::uint32_t> frontier;
  ++stats.rounds;
  stats.judged_pairs_per_round.push_back(g.tasks.size());
  for (std::uint32_t t = 0; t < g.tasks.size(); ++t) {
    ConstraintGraph::Task& task = g.tasks[t];
    support[t].assign(task.list_count(), kNoPair);
    for (std::size_t j = 0; j < task.list_count(); ++j) {
      const std::uint32_t chosen = choose(task, j);
      if (chosen == kNoPair) {
        g.alive.reset(task.pair_id);
        stats.pruned += static_cast<std::size_t>(task.entry->multiplicity);
        frontier.push_back(task.pair_id);
        break;
      }
      support[t][j] = chosen;
      if (!g.boundary.test(chosen)) {
        deps[chosen].push_back({t, static_cast<std::uint32_t>(j)});
        ++stats.support_edges;
      }
    }
  }

  Rng rng(options.scramble_seed);
  std::vector<std::uint32_t> next;
  while (!frontier.empty()) {
    ++stats.rounds;
    stats.worklist_peak = std::max(stats.worklist_peak, frontier.size());
    if (options.scramble_seed != 0)
      for (std::size_t i = frontier.size(); i > 1; --i)
        std::swap(frontier[i - 1],
                  frontier[static_cast<std::size_t>(rng.below(i))]);
    std::size_t judged = 0;
    next.clear();
    for (const std::uint32_t p : frontier) {
      for (const Dep d : deps[p]) {
        const ConstraintGraph::Task& task = g.tasks[d.task];
        if (!g.alive.test(task.pair_id)) continue;    // task already dead
        if (support[d.task][d.constraint] != p) continue;  // stale edge
        ++judged;
        ++stats.rejudged_pairs;
        const std::uint32_t chosen = choose(task, d.constraint);
        if (chosen != kNoPair) {
          support[d.task][d.constraint] = chosen;
          ++stats.repairs;
          if (!g.boundary.test(chosen)) {
            deps[chosen].push_back(d);
            ++stats.support_edges;
          }
          continue;
        }
        g.alive.reset(task.pair_id);
        stats.pruned += static_cast<std::size_t>(task.entry->multiplicity);
        next.push_back(task.pair_id);
      }
      deps[p] = {};  // fired; the pair never resurrects
    }
    stats.judged_pairs_per_round.push_back(judged);
    std::swap(frontier, next);
  }
}

BoundedModelSet fixpoint_impl(BoundedModelSet set,
                              const FixpointOptions& options, ThreadPool* pool,
                              FixpointStats* stats) {
  FixpointStats local;
  local.initial_pairs = set.live_count();
  ConstraintGraph g = build_graph(set, pool);
  run_worklist(g, options, local);
  finish(g, set, local);
  if (stats != nullptr) *stats = local;
  return set;
}

}  // namespace

BoundedModelSet constructible_version(const MemoryModel& model,
                                      const UniverseSpec& spec,
                                      FixpointStats* stats,
                                      const FixpointOptions& options) {
  return fixpoint_impl(BoundedModelSet::restrict_model(model, spec), options,
                       nullptr, stats);
}

BoundedModelSet constructible_version_parallel(const MemoryModel& model,
                                               const UniverseSpec& spec,
                                               ThreadPool& pool,
                                               FixpointStats* stats,
                                               const FixpointOptions& options) {
  return fixpoint_impl(BoundedModelSet::restrict_model(model, spec), options,
                       &pool, stats);
}

BoundedModelSet constructible_version_quotient(const MemoryModel& model,
                                               const UniverseSpec& spec,
                                               FixpointStats* stats,
                                               const FixpointOptions& options) {
  return fixpoint_impl(
      BoundedModelSet::restrict_model_quotient(model, spec, nullptr), options,
      nullptr, stats);
}

BoundedModelSet constructible_version_quotient_parallel(
    const MemoryModel& model, const UniverseSpec& spec, ThreadPool& pool,
    FixpointStats* stats, const FixpointOptions& options) {
  return fixpoint_impl(
      BoundedModelSet::restrict_model_quotient(model, spec, &pool), options,
      &pool, stats);
}

std::vector<SizeClassComparison> compare_with_model(
    const BoundedModelSet& fixpoint, const MemoryModel& reference) {
  std::vector<SizeClassComparison> out(fixpoint.spec().max_nodes + 1);
  for (std::size_t n = 0; n < out.size(); ++n) out[n].size = n;

  std::vector<bool> mismatch(out.size(), false);
  CheckContext ctx;
  for (const auto& [key, e] : fixpoint.entries()) {
    const std::size_t n = e.c.node_count();
    // On quotient sets each representative pair stands for `multiplicity`
    // labeled pairs; membership is isomorphism-invariant, so weighting
    // reproduces the labeled census exactly.
    const auto weight = static_cast<std::size_t>(e.multiplicity);
    for (std::size_t i = 0; i < e.phis.size(); ++i) {
      const bool live = e.alive[i] != 0;
      const bool ref = reference.contains_prepared(ctx.prepare(e.c, e.phis[i]));
      if (live) out[n].fixpoint_pairs += weight;
      if (ref) out[n].reference_pairs += weight;
      if (live != ref) mismatch[n] = true;
    }
    // Pairs rejected by the *initial* model restriction never appear in
    // phis; if the reference admits such a pair the sets differ. That
    // cannot happen when reference ⊆ model, which is the intended use
    // (reference = LC, model = NN); callers comparing unrelated models
    // should rely on the counts.
  }
  for (std::size_t n = 0; n < out.size(); ++n)
    out[n].equal =
        !mismatch[n] && out[n].fixpoint_pairs == out[n].reference_pairs;
  return out;
}

}  // namespace ccmm
