// model_lattice — explore the lattice of Figure 1 interactively-ish:
// enumerate a bounded universe, classify every pair against all six
// models, and print the inclusion matrix plus the census of "signatures"
// (which combination of models accepts a pair).
//
//   $ ./model_lattice [max_nodes] [locations]
#include <cstdio>
#include <cstdlib>
#include <map>

#include "enumerate/universe.hpp"
#include "models/compile.hpp"
#include "models/relations.hpp"
#include "util/str.hpp"

using namespace ccmm;

int main(int argc, char** argv) {
  UniverseSpec spec;
  spec.max_nodes =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 4;
  spec.nlocations =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 1;
  spec.include_nop = false;

  const auto sc = builtin_model(kSuiteSC);
  const auto lc = builtin_model(kSuiteLC);
  const std::vector<std::pair<const char*, const MemoryModel*>> models = {
      {"SC", sc.get()},
      {"LC", lc.get()},
      {"NN", builtin_model(kSuiteNN).get()},
      {"NW", builtin_model(kSuiteNW).get()},
      {"WN", builtin_model(kSuiteWN).get()},
      {"WW", builtin_model(kSuiteWW).get()}};

  std::printf("universe: <= %zu nodes, %zu location(s), %llu pairs\n\n",
              spec.max_nodes, spec.nlocations,
              (unsigned long long)pair_count(spec));

  // Signature census: which subset of models accepts each pair.
  std::map<std::string, std::size_t> census;
  std::vector<std::size_t> counts(models.size(), 0);
  std::size_t total = 0;
  for_each_pair(spec, [&](const Computation& c, const ObserverFunction& f) {
    std::string sig;
    for (std::size_t i = 0; i < models.size(); ++i) {
      const bool in = models[i].second->contains(c, f);
      counts[i] += in ? 1 : 0;
      sig += in ? models[i].first : "--";
      sig += ' ';
    }
    ++census[sig];
    ++total;
    return true;
  });

  TextTable membership({"model", "members", "share"});
  for (std::size_t i = 0; i < models.size(); ++i)
    membership.add_row(
        {models[i].first, format("%zu", counts[i]),
         format("%.1f%%", 100.0 * static_cast<double>(counts[i]) /
                              static_cast<double>(total))});
  std::printf("%s\n", membership.render().c_str());

  std::printf("signatures (which models accept a pair — only lattice-\n"
              "consistent rows should appear):\n");
  TextTable sigs({"SC LC NN NW WN WW", "pairs"});
  for (const auto& [sig, n] : census)
    sigs.add_row({sig, format("%zu", n)});
  std::printf("%s\n", sigs.render().c_str());

  // Lattice consistency assertion: membership must be upward closed
  // along SC ⊆ LC ⊆ NN ⊆ {NW, WN} ⊆ WW.
  bool consistent = true;
  for (const auto& [sig, n] : census) {
    (void)n;
    const bool in_sc = sig.find("SC") != std::string::npos;
    const bool in_lc = sig.find("LC") != std::string::npos;
    const bool in_nn = sig.find("NN") != std::string::npos;
    const bool in_nw = sig.find("NW") != std::string::npos;
    const bool in_wn = sig.find("WN") != std::string::npos;
    const bool in_ww = sig.find("WW") != std::string::npos;
    if (in_sc && !in_lc) consistent = false;
    if (in_lc && !in_nn) consistent = false;
    if (in_nn && (!in_nw || !in_wn)) consistent = false;
    if ((in_nw || in_wn) && !in_ww) consistent = false;
  }
  std::printf("lattice-consistent: %s\n", consistent ? "yes" : "NO");
  return consistent ? 0 : 1;
}
