#include "models/compile.hpp"

#include <algorithm>
#include <bit>
#include <fstream>

#include "util/check.hpp"
#include "util/str.hpp"

namespace ccmm {
CompiledModel::CompiledModel(ModelSpec spec, const CompileOptions& options)
    : spec_(std::move(spec)), options_(options) {
  spec_.normalize();
  // normalize() keeps only w-independent corners, the paper's named
  // predicates: each is one mask bit of the kernel.
  for (const CubeSpec& q : spec_.axioms) {
    named_.push_back(*named_corner(q));
    plan_.mask |= dag_pred_bit(named_.back());
  }
  if (spec_.freshness) plan_.mask |= kSuiteFresh;
  switch (spec_.order) {
    case OrderAxiom::kNone:
      break;
    case OrderAxiom::kPerLocation:
      plan_.mask |= kSuiteLC;
      break;
    case OrderAxiom::kScoped:
      // Uncovered locations are per-location checks, answered by the
      // LC bit's per-location verdicts; the scopes need searches.
      plan_.mask |= kSuiteLC;
      plan_.scoped = true;
      break;
    case OrderAxiom::kGlobal:
      // LC is SC's complete rejection prefilter and is mask-decidable;
      // the search only runs on LC-consistent survivors.
      plan_.mask |= kSuiteLC;
      plan_.global = true;
      break;
  }
}

std::string CompiledModel::cache_tag() const {
  return "spec\x1d" + spec_.digest();
}

CompiledVerdict CompiledModel::check_prepared(const PreparedPair& p) const {
  CompiledVerdict v;
  // The mask part first, from the pair's kernel verdicts as spec_check
  // takes it from the stream, then the budgeted searches.
  if (!p.valid() || p.violated(plan_.mask) != 0) return v;
  ScOptions opt;
  opt.budget = options_.sc_budget;
  if (plan_.scoped)
    for (const ScopeSpec& s : spec_.scopes) {
      const ScResult r = serialization_check(p.computation(), p.observer(),
                                             s.locations, opt);
      if (r.status == SearchStatus::kExhausted) v.exhausted = true;
      if (r.status != SearchStatus::kYes) return v;
    }
  if (plan_.global) {
    const ScResult r = sc_check_prepared(p, opt);
    if (r.status == SearchStatus::kExhausted) v.exhausted = true;
    if (r.status != SearchStatus::kYes) return v;
  }
  v.member = true;
  return v;
}

bool CompiledModel::contains_prepared(const PreparedPair& p) const {
  const CompiledVerdict v = check_prepared(p);
  CCMM_CHECK(!v.exhausted, "serialization search budget exhausted");
  return v.member;
}

bool CompiledModel::for_each_member_observer(
    const Computation& c,
    const std::function<bool(const ObserverFunction&)>& visit) const {
  // Drive with a corner's prefix-pruned enumerator: its member set is a
  // superset of ours we can enumerate without generate-and-test. The
  // normalized corners are an antichain with equal constraint counts, so
  // the first is as tight as any.
  if (named_.empty()) return MemoryModel::for_each_member_observer(c, visit);
  const bool pure = named_.size() == 1 && !spec_.freshness &&
                    spec_.order == OrderAxiom::kNone;
  if (pure) return for_each_qdag_member_observer(c, named_.front(), visit);
  // IntersectionModel's pattern: enumerate the corner, filter by the
  // full plan (the corner re-check inside contains is redundant but
  // keeps the filter trivially correct).
  return for_each_qdag_member_observer(
      c, named_.front(), [&](const ObserverFunction& phi) {
        return !contains(c, phi) || visit(phi);
      });
}

std::shared_ptr<const CompiledModel> compile_model(
    ModelSpec spec, const CompileOptions& options) {
  return std::make_shared<const CompiledModel>(std::move(spec), options);
}

std::shared_ptr<const CompiledModel> builtin_model(std::uint32_t suite_bit) {
  CCMM_CHECK(std::has_single_bit(suite_bit) && suite_bit <= kSuiteNNPlus,
             "not the suite bit of a built-in model");
  return ModelRegistry::bundled()
      .entries()[static_cast<std::size_t>(std::countr_zero(suite_bit))]
      .model;
}

std::shared_ptr<const CompiledModel> cube_model(CubeSpec spec) {
  ModelSpec s;
  s.name = cube_name(spec);
  s.axioms = {spec};
  return compile_model(std::move(s));
}

ModelRegistry::ModelRegistry(std::vector<ModelSpec> specs,
                             const CompileOptions& options) {
  CCMM_CHECK(specs.size() <= kCapacity, "registry holds at most 64 models");
  for (ModelSpec& spec : specs) {
    spec.normalize();
    auto model = compile_model(spec, options);
    entries_.push_back(Entry{std::move(spec), std::move(model)});
  }
  derive();
}

const ModelRegistry& ModelRegistry::bundled() {
  static const ModelRegistry registry = [] {
    std::vector<ModelSpec> specs = builtin_model_specs();
    for (ModelSpec& s : bundled_spec_pack()) specs.push_back(std::move(s));
    return ModelRegistry(std::move(specs));
  }();
  return registry;
}

std::size_t ModelRegistry::add(ModelSpec spec, const CompileOptions& options) {
  spec.normalize();
  const auto model = compile_model(spec, options);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].spec.name == spec.name) {
      entries_[i] = Entry{std::move(spec), model};
      derive();
      return i;
    }
  }
  CCMM_CHECK(entries_.size() < kCapacity, "registry holds at most 64 models");
  entries_.push_back(Entry{std::move(spec), model});
  derive();
  return entries_.size() - 1;
}

const ModelRegistry::Entry* ModelRegistry::find(std::string_view name) const {
  for (const Entry& e : entries_)
    if (e.spec.name == name) return &e;
  return nullptr;
}

void ModelRegistry::derive() {
  const std::size_t n = entries_.size();
  implies_.assign(n, 0);
  implied_by_.assign(n, 0);
  masks_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    masks_ |= entries_[i].model->streaming_plan().mask;
    for (std::size_t j = 0; j < n; ++j)
      if (spec_implies(entries_[i].spec, entries_[j].spec)) {
        implies_[i] |= std::uint64_t{1} << j;
        implied_by_[j] |= std::uint64_t{1} << i;
      }
  }

  // Weakest-first topological order over *strict* implications (equal
  // specs — e.g. COH and LC — imply each other; ties break by index).
  eval_order_.clear();
  std::vector<bool> placed(n, false);
  const auto strict_weaker_unplaced = [&](std::size_t i) {
    for (std::size_t j = 0; j < n; ++j) {
      const bool i_to_j = (implies_[i] >> j) & 1;
      const bool j_to_i = (implies_[j] >> i) & 1;
      if (i != j && i_to_j && !j_to_i && !placed[j]) return true;
    }
    return false;
  };
  for (std::size_t round = 0; round < n; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      if (placed[i] || strict_weaker_unplaced(i)) continue;
      eval_order_.push_back(i);
      placed[i] = true;
      break;
    }
  }
  CCMM_CHECK(eval_order_.size() == n, "implication lattice is not a preorder");
}

std::uint64_t ModelRegistry::classify(const PreparedPair& p,
                                      const RegistryOptions& options,
                                      bool* exhausted) const {
  if (exhausted != nullptr) *exhausted = false;
  if (!p.valid()) return 0;  // every spec model rejects invalid observers
  std::uint64_t member = 0;
  std::uint64_t known = 0;  // decided without budget exhaustion
  for (const std::size_t i : eval_order_) {
    const std::uint64_t self = std::uint64_t{1} << i;
    if (options.short_circuit) {
      // Rejection propagates up the lattice: i ⊆ j and p ∉ j ⇒ p ∉ i.
      if ((implies_[i] & known & ~member) != 0) {
        known |= self;
        continue;
      }
      // Acceptance propagates down: j ⊆ i and p ∈ j ⇒ p ∈ i.
      if ((implied_by_[i] & member) != 0) {
        member |= self;
        known |= self;
        continue;
      }
    }
    // The first entry checked, the weakest, decides its own bits: its
    // rejection decides every entry above it. Past it, one more kernel
    // run decides every entry's mask bits at once.
    if (known != 0) (void)p.violated(masks_);
    const CompiledVerdict v = entries_[i].model->check_prepared(p);
    if (v.exhausted) {
      if (exhausted != nullptr) *exhausted = true;
      continue;  // unknown: neither member nor usable for pruning
    }
    known |= self;
    if (v.member) member |= self;
  }
  return member;
}

std::vector<std::shared_ptr<const CompiledModel>> load_spec_models(
    ModelRegistry& registry, const std::vector<std::string>& spec_paths,
    const std::vector<std::string>& model_names) {
  std::vector<std::string> declared;
  for (const std::string& path : spec_paths) {
    std::ifstream in(path);
    if (!in) throw SpecLoadError("cannot open " + path);
    std::vector<ModelSpec> pack;
    try {
      pack = read_model_specs(in);
    } catch (const SpecParseError& e) {
      throw SpecLoadError(path + ": " + e.what());
    }
    // add() replaces by name: only names new to the registry take a slot.
    std::vector<std::string_view> fresh;
    for (const ModelSpec& s : pack)
      if (registry.find(s.name) == nullptr &&
          std::find(fresh.begin(), fresh.end(), s.name) == fresh.end())
        fresh.push_back(s.name);
    const std::size_t used = registry.entries().size();
    if (used + fresh.size() > ModelRegistry::kCapacity)
      throw SpecLoadError(format(
          "%s: %zu new models would overflow the model registry (%zu of "
          "%zu entries in use)",
          path.c_str(), fresh.size(), used, ModelRegistry::kCapacity));
    for (ModelSpec& s : pack) {
      declared.push_back(s.name);
      registry.add(std::move(s));
    }
  }
  const std::vector<std::string>& names =
      model_names.empty() ? declared : model_names;
  std::vector<std::shared_ptr<const CompiledModel>> selected;
  for (const std::string& name : names) {
    const ModelRegistry::Entry* e = registry.find(name);
    if (e == nullptr)
      throw SpecLoadError("unknown model '" + name +
                          "' (try ccmm_check --list-models)");
    selected.push_back(e->model);
  }
  return selected;
}

}  // namespace ccmm
