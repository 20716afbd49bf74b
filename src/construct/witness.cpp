#include "construct/witness.hpp"

#include "construct/extension.hpp"

namespace ccmm {

NonconstructibilityWitness figure4_witness() {
  // Node layout (ids must be topologically sorted, so the readers that
  // precede the writes come first):
  //   0 = C: R(0), 1 = D: R(0), 2 = A: W(0), 3 = B: W(0)
  //   edges: C -> B (0 -> 3), D -> A (1 -> 2)
  const Dag g(4, {{0, 3}, {1, 2}});
  Computation c(g, {Op::read(0), Op::read(0), Op::write(0), Op::write(0)});

  ObserverFunction phi(4);
  phi.set(0, /*C=*/0, /*A=*/2);  // C observes A
  phi.set(0, /*D=*/1, /*B=*/3);  // D observes B
  phi.set(0, /*A=*/2, 2);
  phi.set(0, /*B=*/3, 3);

  const Computation ext = c.extend(Op::read(0), {2, 3});  // F after A and B
  return {c, phi, ext};
}

bool validate_witness(const MemoryModel& model,
                      const NonconstructibilityWitness& w) {
  if (!w.c.is_prefix_of(w.extension)) return false;
  if (w.extension.node_count() != w.c.node_count() + 1) return false;
  CheckContext ctx;
  if (!model.contains_prepared(ctx.prepare(w.c, w.phi))) return false;
  bool answered = false;
  for_each_extension_observer(
      w.extension, w.phi, [&](const ObserverFunction& phi2) {
        if (model.contains_prepared(ctx.prepare(w.extension, phi2))) {
          answered = true;
          return false;
        }
        return true;
      });
  return !answered;
}

}  // namespace ccmm
