#include "enumerate/universe.hpp"

#include "enumerate/dag_enum.hpp"
#include "enumerate/labeling_enum.hpp"
#include "enumerate/observer_enum.hpp"

namespace ccmm {

bool for_each_computation(
    const UniverseSpec& spec,
    const std::function<bool(const Computation&)>& visit) {
  for (std::size_t n = 0; n <= spec.max_nodes; ++n) {
    LabelingSpec ls{n, spec.nlocations, spec.include_nop,
                    spec.max_writes_per_location};
    bool keep_going = true;
    for_each_topo_dag(n, [&](const Dag& dag) {
      for_each_labeling(ls, [&](const std::vector<Op>& ops) {
        keep_going = visit(Computation(dag, ops));
        return keep_going;
      });
      return keep_going;
    });
    if (!keep_going) return false;
  }
  return true;
}

bool for_each_pair(
    const UniverseSpec& spec,
    const std::function<bool(const Computation&, const ObserverFunction&)>&
        visit) {
  return for_each_computation(spec, [&](const Computation& c) {
    bool keep_going = true;
    for_each_observer(c, [&](const ObserverFunction& phi) {
      keep_going = visit(c, phi);
      return keep_going;
    });
    return keep_going;
  });
}

std::vector<CPhi> build_universe(const UniverseSpec& spec) {
  std::vector<CPhi> out;
  for_each_pair(spec, [&](const Computation& c, const ObserverFunction& phi) {
    CCMM_CHECK(out.size() < (std::size_t{1} << 28),
               "universe too large to materialize");
    out.push_back({c, phi});
    return true;
  });
  return out;
}

std::uint64_t computation_count(const UniverseSpec& spec) {
  std::uint64_t n = 0;
  for_each_computation(spec, [&](const Computation&) {
    ++n;
    return true;
  });
  return n;
}

std::uint64_t pair_count(const UniverseSpec& spec) {
  std::uint64_t n = 0;
  for_each_computation(spec, [&](const Computation& c) {
    n += observer_count(c);
    return true;
  });
  return n;
}

std::string encode_computation(const Computation& c) {
  std::string out;
  const std::size_t n = c.node_count();
  out.push_back(static_cast<char>(n));
  for (NodeId u = 0; u < n; ++u) detail::append_op_code(out, c.op(u));
  // Direct-edge incidence, row-major over i < j, bit-packed.
  std::uint8_t acc = 0;
  int nbits = 0;
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      CCMM_CHECK(!c.dag().has_edge(j, i),
                 "encode_computation requires topologically sorted ids");
      acc = static_cast<std::uint8_t>(
          (acc << 1) | (c.dag().has_edge(i, j) ? 1 : 0));
      if (++nbits == 8) {
        out.push_back(static_cast<char>(acc));
        acc = 0;
        nbits = 0;
      }
    }
  }
  if (nbits > 0) out.push_back(static_cast<char>(acc << (8 - nbits)));
  return out;
}

void detail::append_op_code(std::string& out, const Op& o) {
  out.push_back(static_cast<char>(o.kind));
  Location l = o.loc;
  for (; l >= 0x80; l >>= 7)
    out.push_back(static_cast<char>(0x80 | (l & 0x7f)));
  out.push_back(static_cast<char>(l));
}

std::string encode_observer(const ObserverFunction& phi) {
  std::string out;
  const std::size_t n = phi.node_count();
  out.push_back(static_cast<char>(n));
  for (const Location l : phi.active_locations()) {
    out.push_back(static_cast<char>(l & 0xff));
    for (NodeId u = 0; u < n; ++u) {
      const NodeId v = phi.get(l, u);
      out.push_back(v == kBottom ? static_cast<char>(0xff)
                                 : static_cast<char>(v));
    }
  }
  return out;
}

}  // namespace ccmm
