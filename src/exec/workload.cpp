#include "exec/workload.hpp"

namespace ccmm::workload {

Computation random_ops(const Dag& dag, std::size_t nlocations,
                       double read_frac, double write_frac, Rng& rng) {
  CCMM_CHECK(nlocations >= 1, "need at least one location");
  CCMM_CHECK(read_frac >= 0 && write_frac >= 0 &&
                 read_frac + write_frac <= 1.0,
             "fractions must be nonnegative and sum to <= 1");
  std::vector<Op> ops;
  ops.reserve(dag.node_count());
  for (NodeId u = 0; u < dag.node_count(); ++u) {
    (void)u;
    const double x = rng.uniform();
    const auto l = static_cast<Location>(rng.below(nlocations));
    if (x < read_frac)
      ops.push_back(Op::read(l));
    else if (x < read_frac + write_frac)
      ops.push_back(Op::write(l));
    else
      ops.push_back(Op::nop());
  }
  return Computation(dag, std::move(ops));
}

namespace {

/// Recursive combine for reduction(): returns (location, producer node).
struct Produced {
  Location loc;
  NodeId writer;
};

Produced emit_reduction(ComputationBuilder& c, std::size_t lo, std::size_t hi,
                        Location& next_loc) {
  if (hi - lo == 1) {
    const Location l = next_loc++;
    const NodeId w = c.node(Op::write(l));
    return {l, w};
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  const Produced left = emit_reduction(c, lo, mid, next_loc);
  const Produced right = emit_reduction(c, mid, hi, next_loc);
  const NodeId ra = c.node(Op::read(left.loc), {left.writer});
  const NodeId rb = c.node(Op::read(right.loc), {right.writer});
  const Location out = next_loc++;
  const NodeId w = c.node(Op::write(out), {ra, rb});
  return {out, w};
}

}  // namespace

Computation reduction(std::size_t leaves) {
  CCMM_CHECK(leaves >= 1, "reduction needs at least one leaf");
  ComputationBuilder c;
  Location next_loc = 0;
  emit_reduction(c, 0, leaves, next_loc);
  return std::move(c).build();
}

Computation stencil(std::size_t width, std::size_t steps) {
  CCMM_CHECK(width >= 1 && steps >= 1, "stencil needs width, steps >= 1");
  ComputationBuilder c;
  // loc(t, i) alternates between two buffers of `width` locations.
  auto loc = [&](std::size_t t, std::size_t i) {
    return static_cast<Location>((t % 2) * width + i);
  };
  std::vector<NodeId> prev_writer(width, kBottom);
  // Step 0 initializes the first buffer.
  for (std::size_t i = 0; i < width; ++i)
    prev_writer[i] = c.node(Op::write(loc(0, i)));
  for (std::size_t t = 1; t < steps; ++t) {
    std::vector<NodeId> cur_writer(width);
    for (std::size_t i = 0; i < width; ++i) {
      std::vector<NodeId> reads;
      const std::size_t lo = (i == 0) ? 0 : i - 1;
      const std::size_t hi = (i + 1 < width) ? i + 1 : i;
      for (std::size_t j = lo; j <= hi; ++j)
        reads.push_back(
            c.node(Op::read(loc(t - 1, j)), {prev_writer[j]}));
      // The writer also waits for last step's reads of its own cell, so
      // the double buffer is not overwritten while still being read.
      cur_writer[i] = c.node(Op::write(loc(t, i)), reads);
    }
    prev_writer = std::move(cur_writer);
  }
  return std::move(c).build();
}

Computation contended_counter(std::size_t increments) {
  CCMM_CHECK(increments >= 1, "need at least one increment");
  ComputationBuilder c;
  const NodeId init = c.node(Op::write(0));
  std::vector<NodeId> tails;
  tails.reserve(increments);
  for (std::size_t i = 0; i < increments; ++i) {
    const NodeId r = c.node(Op::read(0), {init});
    const NodeId w = c.node(Op::write(0), {r});
    tails.push_back(w);
  }
  // A final read joins all increments.
  c.node(Op::read(0), tails);
  return std::move(c).build();
}

Computation matmul(std::size_t n) {
  CCMM_CHECK(n >= 1, "matmul needs n >= 1");
  ComputationBuilder c;
  const auto nn = static_cast<Location>(n * n);
  const auto loc_a = [&](std::size_t i, std::size_t k) {
    return static_cast<Location>(i * n + k);
  };
  const auto loc_b = [&](std::size_t k, std::size_t j) {
    return static_cast<Location>(nn + k * n + j);
  };
  const auto loc_c = [&](std::size_t i, std::size_t j) {
    return static_cast<Location>(2 * nn + i * n + j);
  };

  // Input blocks are written once, up front, all in parallel.
  std::vector<NodeId> a_writer(n * n), b_writer(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < n; ++k)
      a_writer[i * n + k] = c.node(Op::write(loc_a(i, k)));
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t j = 0; j < n; ++j)
      b_writer[k * n + j] = c.node(Op::write(loc_b(k, j)));

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      NodeId prev_c_writer = c.node(Op::write(loc_c(i, j)));  // zero C
      for (std::size_t k = 0; k < n; ++k) {
        const NodeId ra =
            c.node(Op::read(loc_a(i, k)), {a_writer[i * n + k]});
        const NodeId rb =
            c.node(Op::read(loc_b(k, j)), {b_writer[k * n + j]});
        const NodeId rc = c.node(Op::read(loc_c(i, j)), {prev_c_writer});
        prev_c_writer =
            c.node(Op::write(loc_c(i, j)), {ra, rb, rc});
      }
    }
  }
  return std::move(c).build();
}

Computation fork_join_array(std::size_t branching, std::size_t depth,
                            std::size_t nlocations) {
  CCMM_CHECK(nlocations >= 1, "need at least one location");
  const Dag d = gen::fork_join(branching, depth);
  std::vector<Op> ops;
  ops.reserve(d.node_count());
  std::size_t access = 0;
  for (NodeId u = 0; u < d.node_count(); ++u) {
    const bool leaf = d.succ(u).empty() || d.pred(u).empty()
                          ? false
                          : d.succ(u).size() == 1 && d.pred(u).size() == 1;
    if (leaf) {
      const auto l = static_cast<Location>(access % nlocations);
      ops.push_back(access % 2 == 0 ? Op::write(l) : Op::read(l));
      ++access;
    } else {
      ops.push_back(Op::nop());  // fork/join scaffolding
    }
  }
  return Computation(d, std::move(ops));
}

}  // namespace ccmm::workload
