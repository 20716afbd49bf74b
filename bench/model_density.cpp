// Model density beyond exhaustive reach: Monte-Carlo estimates of how
// much of the valid-observer space each model admits, as computations
// grow and as the workload gets racier. Exhaustive enumeration stops
// near 5 nodes; sampling carries the lattice picture to 40-node
// computations. Expected shape (checked): densities order along the
// lattice SC ≤ LC ≤ NN ≤ {NW, WN} ≤ WW at every size, and every density
// collapses toward 0 as racy computations grow — the models constrain
// an ever-thinner slice of behaviours.
#include "enumerate/sampling.hpp"
#include "exec/workload.hpp"
#include "experiment_common.hpp"
#include "models/compile.hpp"

namespace ccmm {
namespace {

int run() {
  experiment::Harness h("Model density under sampling (lattice at scale)");

  const auto lc = builtin_model(kSuiteLC);
  const std::vector<std::pair<const char*, const MemoryModel*>> models = {
      {"LC", lc.get()},
      {"NN", builtin_model(kSuiteNN).get()},
      {"NW", builtin_model(kSuiteNW).get()},
      {"WN", builtin_model(kSuiteWN).get()},
      {"WN+", builtin_model(kSuiteWNPlus).get()},
      {"WW", builtin_model(kSuiteWW).get()},
  };

  std::vector<std::string> header = {"workload", "nodes", "samples"};
  for (const auto& [name, m] : models) {
    (void)m;
    header.push_back(name);
  }
  TextTable t(header);

  Rng rng(2026);
  const std::size_t kSamples = 2000;
  bool ordered = true;
  for (const std::size_t n : {6u, 10u, 16u, 24u, 40u}) {
    struct W {
      const char* name;
      Computation c;
    };
    const W workloads[] = {
        {"random", workload::random_ops(
                       gen::random_dag(n, 4.0 / static_cast<double>(n), rng),
                       2, 0.45, 0.45, rng)},
        {"counter", workload::contended_counter(std::max<std::size_t>(
                        1, (n - 2) / 2))},
    };
    for (const auto& [name, c] : workloads) {
      std::vector<std::string> row = {name, format("%zu", c.node_count()),
                                      format("%zu", kSamples)};
      // Evaluate every model on the SAME sample set: per-sample
      // membership implication then makes the ordering exact, not
      // merely statistical.
      std::vector<std::size_t> members(models.size(), 0);
      CheckContext ctx;  // one preparation serves every model per sample
      for (std::size_t s = 0; s < kSamples; ++s) {
        const ObserverFunction phi = random_observer(c, rng);
        const PreparedPair p = ctx.prepare(c, phi);
        for (std::size_t m = 0; m < models.size(); ++m)
          if (models[m].second->contains_prepared(p)) ++members[m];
      }
      std::vector<double> density;
      for (const std::size_t m : members) {
        density.push_back(static_cast<double>(m) /
                          static_cast<double>(kSamples));
        row.push_back(format("%.3f", density.back()));
      }
      t.add_row(row);
      // Lattice ordering among the comparable models:
      // LC <= NN <= NW <= WW and NN <= WN+ <= WN <= WW.
      const double d_lc = density[0], d_nn = density[1], d_nw = density[2],
                   d_wn = density[3], d_wnp = density[4], d_ww = density[5];
      if (d_lc > d_nn || d_nn > d_nw || d_nw > d_ww || d_nn > d_wnp ||
          d_wnp > d_wn || d_wn > d_ww)
        ordered = false;
    }
  }
  h.note(t.render());
  h.check(ordered,
          "sampled densities respect the lattice order at every size");
  h.note("(Each row evaluates all models on one shared sample set, so the\n"
         "lattice ordering is exact per row, not merely statistical.)");
  return h.finish();
}

}  // namespace
}  // namespace ccmm

int main() { return ccmm::run(); }
