#include "construct/constructibility.hpp"

#include "construct/extension.hpp"
#include "enumerate/canonical.hpp"
#include "enumerate/observer_enum.hpp"
#include "util/str.hpp"

namespace ccmm {

std::string NonconstructibilityWitness::to_string() const {
  std::string out = "nonconstructibility witness\n-- computation C:\n";
  out += c.to_string();
  out += "-- observer function (in the model):\n";
  out += phi.to_string();
  out += "-- unanswerable extension C' (new node ";
  out += format("%zu: %s", c.node_count(),
                extension.op(static_cast<NodeId>(c.node_count()))
                    .to_string()
                    .c_str());
  out += "):\n";
  out += extension.to_string();
  return out;
}

namespace {

/// Does some observer function of `ext` extend `phi` within the model?
/// The candidates share ext, so one context amortizes the per-candidate
/// preparation (the closure freeze is paid once for the whole sweep).
bool extension_answerable(const MemoryModel& model, const Computation& ext,
                          const ObserverFunction& phi, CheckContext& ctx) {
  bool answered = false;
  for_each_extension_observer(ext, phi, [&](const ObserverFunction& phi2) {
    if (model.contains_prepared(ctx.prepare(ext, phi2))) {
      answered = true;
      return false;  // stop
    }
    return true;
  });
  return answered;
}

std::optional<NonconstructibilityWitness> search_at_exact_size(
    const MemoryModel& model, const WitnessSearchOptions& options,
    std::size_t size) {
  UniverseSpec spec = options.spec;
  spec.max_nodes = size;
  const std::vector<Op> alphabet = op_alphabet(spec.nlocations);
  std::optional<NonconstructibilityWitness> witness;
  CheckContext ctx;

  const auto check_pair = [&](const Computation& c,
                              const ObserverFunction& phi) {
    if (c.node_count() != size) return true;  // exact-size pass
    if (!model.contains_prepared(ctx.prepare(c, phi))) return true;

    if (options.augment_only) {
      for (const Op& o : alphabet) {
        const Computation ext = c.augment(o);
        if (!extension_answerable(model, ext, phi, ctx)) {
          witness = {c, phi, ext};
          return false;
        }
      }
      return true;
    }

    bool ok = true;
    for_each_one_node_extension(
        c, alphabet, /*dedupe_by_closure=*/true, [&](const Computation& ext) {
          if (!extension_answerable(model, ext, phi, ctx)) {
            witness = {c, phi, ext};
            ok = false;
            return false;
          }
          return true;
        });
    return ok;
  };

  if (options.quotient) {
    // One representative per isomorphism class; answerability is
    // isomorphism-invariant, so this scan is complete.
    for_each_computation_up_to_iso(
        spec, [&](const Computation& rep, std::uint64_t) {
          bool keep = true;
          for_each_observer(rep, [&](const ObserverFunction& phi) {
            keep = check_pair(rep, phi);
            return keep;
          });
          return keep;
        });
  } else {
    for_each_pair(spec, check_pair);
  }
  return witness;
}

}  // namespace

std::optional<NonconstructibilityWitness> find_nonconstructibility_witness(
    const MemoryModel& model, const WitnessSearchOptions& options) {
  for (std::size_t size = 0; size <= options.spec.max_nodes; ++size) {
    auto w = search_at_exact_size(model, options, size);
    if (w.has_value()) return w;
  }
  return std::nullopt;
}

std::optional<NonconstructibilityWitness>
find_minimal_nonconstructibility_witness(const MemoryModel& model,
                                         const WitnessSearchOptions& options) {
  // find_nonconstructibility_witness already scans sizes in increasing
  // order; within a size, the enumeration order visits sparser dags first
  // (edge-mask order), so the first hit is minimal in our canonical order.
  return find_nonconstructibility_witness(model, options);
}

}  // namespace ccmm
