// witness_explorer — hunt for nonconstructibility witnesses of a chosen
// memory model by exhaustive search over bounded computation universes
// (the machinery behind the paper's Figure 4, pointed at any model).
//
//   $ ./witness_explorer [model] [max_nodes] [locations]
//     model ∈ {nn, nw, wn, ww, lc, sc}      (default nn)
//     max_nodes                              (default 4)
//     locations                              (default 1)
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "construct/witness.hpp"
#include "models/compile.hpp"

using namespace ccmm;

namespace {

std::shared_ptr<const MemoryModel> pick_model(const char* name) {
  if (std::strcmp(name, "nn") == 0) return builtin_model(kSuiteNN);
  if (std::strcmp(name, "nw") == 0) return builtin_model(kSuiteNW);
  if (std::strcmp(name, "wn") == 0) return builtin_model(kSuiteWN);
  if (std::strcmp(name, "ww") == 0) return builtin_model(kSuiteWW);
  if (std::strcmp(name, "lc") == 0)
    return builtin_model(kSuiteLC);
  if (std::strcmp(name, "sc") == 0)
    return builtin_model(kSuiteSC);
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const char* name = argc > 1 ? argv[1] : "nn";
  const auto model = pick_model(name);
  if (model == nullptr) {
    std::fprintf(stderr, "unknown model '%s' (use nn/nw/wn/ww/lc/sc)\n",
                 name);
    return 2;
  }
  WitnessSearchOptions options;
  options.spec.max_nodes =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 4;
  options.spec.nlocations =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 1;
  options.spec.include_nop = false;

  std::printf("searching for a nonconstructibility witness of %s over "
              "computations with <= %zu nodes, %zu location(s)...\n",
              model->name().c_str(), options.spec.max_nodes,
              options.spec.nlocations);

  const auto witness =
      find_minimal_nonconstructibility_witness(*model, options);
  if (!witness.has_value()) {
    std::printf("none found: %s answers every one-node extension up to the "
                "bound — constructible as far as this universe can see.\n",
                model->name().c_str());
    return 0;
  }
  std::printf("\n%s is NOT constructible. Minimal witness:\n\n%s",
              model->name().c_str(), witness->to_string().c_str());
  std::printf("double-check: %s\n",
              validate_witness(*model, *witness) ? "validated" : "BOGUS?!");
  return 0;
}
