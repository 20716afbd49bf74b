#include "construct/online.hpp"

#include "construct/extension.hpp"
#include "construct/witness.hpp"

namespace ccmm {

OnlineRun run_online(OnlineMaintainer& maintainer, const Computation& c,
                     const MemoryModel* target) {
  // Reveal nodes in id order; every prefix-by-ids must be downward
  // closed, which holds when ids are topologically sorted.
  CCMM_CHECK(c.dag().ids_topological(),
             "run_online requires topologically sorted node ids");

  maintainer.reset();
  OnlineRun run;
  run.phi = ObserverFunction(c.node_count());

  for (NodeId u = 0; u < c.node_count(); ++u) {
    DynBitset keep(c.node_count());
    for (NodeId v = 0; v <= u; ++v) keep.set(v);
    const Computation prefix = c.induced(keep);
    const std::vector<Location> locations = prefix.written_locations();

    const std::vector<NodeId> row =
        maintainer.on_reveal(prefix, u, locations);
    CCMM_CHECK(row.size() == locations.size(),
               "maintainer returned a row of the wrong width");
    for (std::size_t i = 0; i < locations.size(); ++i) {
      // A write's own-location answer is forced; normalize it.
      const NodeId v = c.op(u).writes(locations[i]) ? u : row[i];
      if (v != kBottom) run.phi.set(locations[i], u, v);
    }

    // Audit the committed prefix.
    const ObserverFunction so_far = run.phi.restricted(u + 1);
    if (!is_valid_observer(prefix, so_far)) run.valid = false;
    if (target != nullptr && run.first_violation_step == SIZE_MAX &&
        !target->contains(prefix, so_far))
      run.first_violation_step = u;
  }
  return run;
}

std::vector<NodeId> SerialMaintainer::on_reveal(
    const Computation& prefix, NodeId new_node,
    const std::vector<Location>& locations) {
  std::vector<NodeId> row;
  row.reserve(locations.size());
  const Op o = prefix.op(new_node);
  for (const Location l : locations) {
    if (o.writes(l)) {
      last_[l] = new_node;
      row.push_back(new_node);
    } else {
      const auto it = last_.find(l);
      row.push_back(it == last_.end() ? kBottom : it->second);
    }
  }
  return row;
}

std::vector<NodeId> GreedyStaleMaintainer::on_reveal(
    const Computation& prefix, NodeId new_node,
    const std::vector<Location>& locations) {
  // Rebuild the committed function at the prefix width.
  ObserverFunction grown(prefix.node_count());
  for (const Location l : phi_.active_locations())
    for (NodeId u = 0; u < phi_.node_count(); ++u)
      if (phi_.get(l, u) != kBottom) grown.set(l, u, phi_.get(l, u));

  const Op o = prefix.op(new_node);
  std::vector<NodeId> row(locations.size(), kBottom);

  // Candidate rows, laziest first: all-⊥ (with forced self-writes),
  // then arrival-last-writer per location, then the full product.
  const auto try_row = [&](const std::vector<NodeId>& candidate) {
    ObserverFunction attempt = grown;
    for (std::size_t i = 0; i < locations.size(); ++i) {
      const NodeId v =
          o.writes(locations[i]) ? new_node : candidate[i];
      if (v != kBottom) attempt.set(locations[i], new_node, v);
    }
    if (target_->contains(prefix, attempt)) {
      phi_ = std::move(attempt);
      return true;
    }
    return false;
  };

  if (try_row(row)) {
    std::vector<NodeId> committed(locations.size());
    for (std::size_t i = 0; i < locations.size(); ++i)
      committed[i] = phi_.get(locations[i], new_node);
    return committed;
  }
  // Brute force over per-location candidates (⊥ plus all writes).
  std::vector<std::vector<NodeId>> choices;
  for (const Location l : locations) {
    std::vector<NodeId> ch{kBottom};
    for (const NodeId w : prefix.writers(l)) ch.push_back(w);
    choices.push_back(std::move(ch));
  }
  std::vector<std::size_t> odo(locations.size(), 0);
  for (;;) {
    for (std::size_t i = 0; i < locations.size(); ++i)
      row[i] = choices[i][odo[i]];
    if (try_row(row)) {
      std::vector<NodeId> committed(locations.size());
      for (std::size_t i = 0; i < locations.size(); ++i)
        committed[i] = phi_.get(locations[i], new_node);
      return committed;
    }
    std::size_t i = 0;
    while (i < locations.size()) {
      if (++odo[i] < choices[i].size()) break;
      odo[i] = 0;
      ++i;
    }
    if (i == locations.size()) break;  // stuck: no answer stays in model
  }
  // Stuck: commit the laziest row anyway; run_online's audit records the
  // violation step — the operational face of nonconstructibility.
  std::vector<NodeId> fallback(locations.size(), kBottom);
  ObserverFunction attempt = grown;
  for (std::size_t i = 0; i < locations.size(); ++i)
    if (o.writes(locations[i])) {
      attempt.set(locations[i], new_node, new_node);
      fallback[i] = new_node;
    }
  phi_ = std::move(attempt);
  return fallback;
}

bool play_nonconstructibility_game(const MemoryModel& model,
                                   const NonconstructibilityWitness& witness) {
  // The prefix position must be legal...
  if (!model.contains(witness.c, witness.phi)) return false;
  // ...and every answer for the final node must leave the model.
  bool any_answer = false;
  for_each_extension_observer(witness.extension, witness.phi,
                              [&](const ObserverFunction& phi2) {
                                if (model.contains(witness.extension, phi2)) {
                                  any_answer = true;
                                  return false;
                                }
                                return true;
                              });
  return !any_answer;
}

}  // namespace ccmm
