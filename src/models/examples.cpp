#include "models/examples.hpp"

namespace ccmm::examples {

ExamplePair figure2() {
  const Dag g(4, {{0, 2}, {2, 3}});  // A -> C -> D
  Computation c(g, {Op::write(0), Op::write(0), Op::read(0), Op::read(0)});
  ObserverFunction phi(4);
  phi.set(0, 0, 0);
  phi.set(0, 1, 1);
  phi.set(0, 2, 1);  // C observes B
  phi.set(0, 3, 0);  // D observes A
  return {"figure2", std::move(c), std::move(phi),
          /*nn=*/false, /*nw=*/true, /*wn=*/false, /*ww=*/true,
          /*lc=*/false, /*sc=*/false};
}

ExamplePair figure3() {
  const Dag g(4, {{1, 2}, {2, 3}});  // C -> B -> D
  Computation c(g, {Op::write(0), Op::read(0), Op::write(0), Op::read(0)});
  ObserverFunction phi(4);
  phi.set(0, 0, 0);
  phi.set(0, 1, 0);  // C observes A
  phi.set(0, 2, 2);
  phi.set(0, 3, 0);  // D observes A
  return {"figure3", std::move(c), std::move(phi),
          /*nn=*/false, /*nw=*/false, /*wn=*/true, /*ww=*/true,
          /*lc=*/false, /*sc=*/false};
}

ExamplePair lc_not_sc() {
  Dag g(4);
  Computation c(g, {Op::write(0), Op::write(1), Op::nop(), Op::nop()});
  ObserverFunction phi(4);
  phi.set(0, 0, 0);
  phi.set(1, 1, 1);
  phi.set(0, 2, 0);  // C sees A at location 0, nothing at 1
  phi.set(1, 3, 1);  // D sees B at location 1, nothing at 0
  return {"lc-not-sc", std::move(c), std::move(phi),
          /*nn=*/true, /*nw=*/true, /*wn=*/true, /*ww=*/true,
          /*lc=*/true, /*sc=*/false};
}

std::vector<ExamplePair> all() {
  std::vector<ExamplePair> out;
  out.push_back(figure2());
  out.push_back(figure3());
  out.push_back(lc_not_sc());
  return out;
}

}  // namespace ccmm::examples
