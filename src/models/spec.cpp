#include "models/spec.hpp"

#include <algorithm>
#include <istream>
#include <sstream>

#include "util/check.hpp"
#include "util/str.hpp"

namespace ccmm {

const char* order_axiom_name(OrderAxiom order) {
  switch (order) {
    case OrderAxiom::kNone:
      return "none";
    case OrderAxiom::kPerLocation:
      return "location";
    case OrderAxiom::kScoped:
      return "scoped";
    case OrderAxiom::kGlobal:
      return "global";
  }
  return "?";
}

namespace {

bool scope_less(const ScopeSpec& a, const ScopeSpec& b) {
  return a.locations < b.locations;
}

bool cube_less(CubeSpec a, CubeSpec b) {
  const auto rank = [](CubeSpec s) {
    return (s.u_writes ? 4 : 0) | (s.v_writes ? 2 : 0) | (s.w_writes ? 1 : 0);
  };
  return rank(a) < rank(b);
}

bool cube_eq(CubeSpec a, CubeSpec b) { return a == b; }

}  // namespace

bool cube_axiom_implies(CubeSpec a, CubeSpec b) {
  // a's constraint set must be a subset of b's: wherever a constrains a
  // coordinate to write, b must too.
  return (!a.u_writes || b.u_writes) && (!a.v_writes || b.v_writes) &&
         (!a.w_writes || b.w_writes);
}

bool order_axiom_implies(OrderAxiom a, const std::vector<ScopeSpec>& a_scopes,
                         OrderAxiom b,
                         const std::vector<ScopeSpec>& b_scopes) {
  if (b == OrderAxiom::kNone) return true;
  if (a == OrderAxiom::kNone) return false;
  // Any surviving order axiom implies per-location: scoped witnesses
  // restrict to single locations, and uncovered locations are singleton
  // scopes by definition.
  if (b == OrderAxiom::kPerLocation) return true;
  if (a == OrderAxiom::kGlobal) return true;  // one sort explains anything
  if (a == OrderAxiom::kPerLocation) return false;  // a == per-location only
  // a is scoped. It implies b iff every witness b demands is a
  // restriction of one a demands: every scope of b inside some scope
  // of a (kGlobal b would need a universal scope, which normalize()
  // never produces — declared scopes are finite).
  if (b == OrderAxiom::kGlobal) return false;
  for (const ScopeSpec& sb : b_scopes) {
    const bool covered = std::any_of(
        a_scopes.begin(), a_scopes.end(), [&](const ScopeSpec& sa) {
          return std::includes(sa.locations.begin(), sa.locations.end(),
                               sb.locations.begin(), sb.locations.end());
        });
    if (!covered) return false;
  }
  return true;
}

bool spec_implies(const ModelSpec& a, const ModelSpec& b) {
  const bool a_orders =
      order_axiom_implies(a.order, a.scopes, OrderAxiom::kPerLocation, {});
  // Order: b's order axiom must be derivable from a's.
  if (!order_axiom_implies(a.order, a.scopes, b.order, b.scopes)) return false;
  // Freshness: implied by a's own freshness axiom or by any witness-sort
  // order axiom (the last writer W_T(l,u) of a writer-ancestor's sort
  // position is never ⊥).
  if (b.freshness && !(a.freshness || a_orders)) return false;
  // Cube axioms: each of b's must follow from a stronger one of a's or
  // from a's order axiom (LC ⊆ NN ⊆ every corner, Theorem 21).
  for (const CubeSpec& qb : b.axioms) {
    const bool covered =
        a_orders || std::any_of(a.axioms.begin(), a.axioms.end(),
                                [&](const CubeSpec& qa) {
                                  return cube_axiom_implies(qa, qb);
                                });
    if (!covered) return false;
  }
  return true;
}

std::string ModelSpec::validate() const {
  if (name.empty()) return "model has no name";
  if (order != OrderAxiom::kScoped && !scopes.empty())
    return "scope lines require scoped order";
  if (order == OrderAxiom::kScoped && scopes.empty())
    return "scoped order requires at least one scope";
  std::vector<Location> all;
  for (const ScopeSpec& s : scopes) {
    if (s.locations.empty()) return "empty scope";
    all.insert(all.end(), s.locations.begin(), s.locations.end());
  }
  std::sort(all.begin(), all.end());
  if (std::adjacent_find(all.begin(), all.end()) != all.end())
    return format("location %u appears in two scopes",
                  *std::adjacent_find(all.begin(), all.end()));
  return "";
}

void ModelSpec::normalize() {
  CCMM_CHECK(validate().empty(), "invalid model spec");
  for (ScopeSpec& s : scopes) {
    std::sort(s.locations.begin(), s.locations.end());
    s.locations.erase(std::unique(s.locations.begin(), s.locations.end()),
                      s.locations.end());
  }
  // A singleton scope is exactly the implicit per-location treatment of
  // an uncovered location; dropping it changes nothing.
  std::erase_if(scopes, [](const ScopeSpec& s) {
    return s.locations.size() <= 1;
  });
  std::sort(scopes.begin(), scopes.end(), scope_less);
  if (order == OrderAxiom::kScoped && scopes.empty())
    order = OrderAxiom::kPerLocation;

  // A w-constrained axiom is vacuous for valid observers: if w writes l,
  // Φ(l,w) = w (2.3), so a u ≺ v ≺ w with Φ(l,u) = Φ(l,w) would observe
  // a write it precedes (2.2), and Φ(l,⊥) = ⊥ ≠ w.
  std::erase_if(axioms, [](CubeSpec q) { return q.w_writes; });
  std::sort(axioms.begin(), axioms.end(), cube_less);
  axioms.erase(std::unique(axioms.begin(), axioms.end(), cube_eq),
               axioms.end());
  // Drop axioms already implied by the order axiom or by a stronger
  // sibling, so the compiled plan never runs a redundant scan and the
  // digest is canonical.
  if (order_axiom_implies(order, scopes, OrderAxiom::kPerLocation, {})) {
    axioms.clear();
    if (freshness) freshness = false;  // implied by the order witness
  } else {
    // After unique() axioms are pairwise distinct, so domination by a
    // sibling is strict and dropping dominated ones cannot cascade.
    std::vector<CubeSpec> kept;
    for (std::size_t i = 0; i < axioms.size(); ++i) {
      bool dominated = false;
      for (std::size_t j = 0; j < axioms.size() && !dominated; ++j)
        dominated = i != j && cube_axiom_implies(axioms[j], axioms[i]);
      if (!dominated) kept.push_back(axioms[i]);
    }
    axioms = std::move(kept);
  }
}

std::string ModelSpec::digest() const {
  // A canonical rendering (minus the name) is already a collision-free
  // fingerprint of the normalized structure.
  std::string d = order_axiom_name(order);
  for (const ScopeSpec& s : scopes) {
    d += "|s";
    for (const Location l : s.locations) d += format(",%u", l);
  }
  for (const CubeSpec& q : axioms) {
    d += "|a";
    d += q.u_writes ? 'W' : 'N';
    d += q.v_writes ? 'W' : 'N';
    d += q.w_writes ? 'W' : 'N';
  }
  if (freshness) d += "|f";
  return d;
}

std::string ModelSpec::to_string() const {
  std::string out = format("model %s\n", name.c_str());
  if (order == OrderAxiom::kScoped) {
    for (const ScopeSpec& s : scopes) {
      out += "scope";
      for (const Location l : s.locations) out += format(" %u", l);
      out += "\n";
    }
  } else if (order != OrderAxiom::kNone) {
    out += format("order %s\n", order_axiom_name(order));
  }
  for (const CubeSpec& q : axioms) {
    out += format("axiom %c%c%c\n", q.u_writes ? 'W' : 'N',
                  q.v_writes ? 'W' : 'N', q.w_writes ? 'W' : 'N');
  }
  if (freshness) out += "fresh\n";
  out += "end\n";
  return out;
}

std::string SpecParseError::format_message(std::size_t line,
                                           const std::string& message) {
  return format("spec line %zu: %s", line, message.c_str());
}

namespace {

/// Strip a trailing comment and surrounding whitespace.
std::string clean_line(std::string s) {
  const std::size_t hash = s.find('#');
  if (hash != std::string::npos) s.resize(hash);
  const auto not_space = [](unsigned char ch) { return !std::isspace(ch); };
  s.erase(s.begin(), std::find_if(s.begin(), s.end(), not_space));
  s.erase(std::find_if(s.rbegin(), s.rend(), not_space).base(), s.end());
  return s;
}

std::vector<std::string> split_words(const std::string& s) {
  std::vector<std::string> words;
  std::istringstream in(s);
  std::string w;
  while (in >> w) words.push_back(w);
  return words;
}

/// Decimal digits only, as in the trace and instance readers: a sign, a
/// stray character or an overflow is an error, never a folded value.
Location parse_location(const std::string& word, std::size_t line) {
  const auto reject = [&] {
    return SpecParseError(line,
                          format("'%s' is not a location", word.c_str()));
  };
  if (word.empty()) throw reject();
  std::uint64_t v = 0;
  for (const char ch : word) {
    if (ch < '0' || ch > '9') throw reject();
    v = v * 10 + static_cast<std::uint64_t>(ch - '0');
    if (v > 0xFFFFFFFFull) throw reject();
  }
  return static_cast<Location>(v);
}

CubeSpec parse_cube(const std::string& word, std::size_t line) {
  if (word.size() != 3 ||
      !std::all_of(word.begin(), word.end(),
                   [](char ch) { return ch == 'N' || ch == 'W'; }))
    throw SpecParseError(
        line, format("axiom wants three letters from {N, W} (e.g. WNN), "
                     "got '%s'",
                     word.c_str()));
  return CubeSpec{word[0] == 'W', word[1] == 'W', word[2] == 'W'};
}

}  // namespace

std::vector<ModelSpec> read_model_specs(std::istream& in) {
  std::vector<ModelSpec> specs;
  ModelSpec cur;
  bool open = false;
  bool order_seen = false;
  std::size_t model_line = 0;
  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = clean_line(std::move(raw));
    if (line.empty()) continue;
    const std::vector<std::string> words = split_words(line);
    const std::string& head = words[0];
    if (head == "model") {
      if (open)
        throw SpecParseError(
            lineno, format("'model' before 'end' of model '%s' (line %zu)",
                           cur.name.c_str(), model_line));
      if (words.size() != 2)
        throw SpecParseError(lineno, "usage: model NAME");
      cur = ModelSpec{};
      cur.name = words[1];
      open = true;
      order_seen = false;
      model_line = lineno;
      continue;
    }
    if (!open)
      throw SpecParseError(
          lineno, format("'%s' outside a model block", head.c_str()));
    if (head == "end") {
      if (words.size() != 1) throw SpecParseError(lineno, "usage: end");
      const std::string why = cur.validate();
      if (!why.empty()) throw SpecParseError(lineno, why);
      cur.normalize();
      for (const ModelSpec& s : specs)
        if (s.name == cur.name)
          throw SpecParseError(
              lineno, format("duplicate model name '%s'", cur.name.c_str()));
      specs.push_back(std::move(cur));
      open = false;
    } else if (head == "order") {
      if (order_seen)
        throw SpecParseError(lineno, "more than one order directive");
      if (words.size() != 2 ||
          (words[1] != "none" && words[1] != "location" &&
           words[1] != "global"))
        throw SpecParseError(lineno,
                             "usage: order none|location|global "
                             "(scoped order is declared by scope lines)");
      order_seen = true;
      cur.order = words[1] == "none"       ? OrderAxiom::kNone
                  : words[1] == "location" ? OrderAxiom::kPerLocation
                                           : OrderAxiom::kGlobal;
    } else if (head == "scope") {
      if (order_seen && cur.order != OrderAxiom::kScoped)
        throw SpecParseError(lineno,
                             "scope lines conflict with the order directive");
      if (words.size() < 2)
        throw SpecParseError(lineno, "usage: scope LOC [LOC...]");
      order_seen = true;
      cur.order = OrderAxiom::kScoped;
      ScopeSpec s;
      for (std::size_t i = 1; i < words.size(); ++i)
        s.locations.push_back(parse_location(words[i], lineno));
      cur.scopes.push_back(std::move(s));
    } else if (head == "axiom") {
      if (words.size() != 2)
        throw SpecParseError(lineno, "usage: axiom XYZ with X,Y,Z in {N, W}");
      cur.axioms.push_back(parse_cube(words[1], lineno));
    } else if (head == "fresh") {
      if (words.size() != 1) throw SpecParseError(lineno, "usage: fresh");
      cur.freshness = true;
    } else {
      throw SpecParseError(
          lineno, format("unknown directive '%s'", head.c_str()));
    }
  }
  if (open)
    throw SpecParseError(
        lineno == 0 ? 1 : lineno,
        format("model '%s' (line %zu) is missing its 'end'",
               cur.name.c_str(), model_line));
  return specs;
}

std::vector<ModelSpec> read_model_specs(const std::string& text) {
  std::istringstream in(text);
  return read_model_specs(in);
}

namespace {

ModelSpec make_spec(std::string name, OrderAxiom order,
                    std::vector<CubeSpec> axioms, bool fresh) {
  ModelSpec s;
  s.name = std::move(name);
  s.order = order;
  s.axioms = std::move(axioms);
  s.freshness = fresh;
  s.normalize();
  return s;
}

}  // namespace

const std::vector<ModelSpec>& builtin_model_specs() {
  static const std::vector<ModelSpec> specs = [] {
    // The named Q-dag corners are w-independent: NN = [NNN], NW = [NWN],
    // WN = [WNN], WW = [WWN] (qdag.hpp).
    std::vector<ModelSpec> v;
    v.push_back(make_spec("SC", OrderAxiom::kGlobal, {}, false));
    v.push_back(make_spec("LC", OrderAxiom::kPerLocation, {}, false));
    v.push_back(make_spec("NN", OrderAxiom::kNone,
                          {CubeSpec{false, false, false}}, false));
    v.push_back(make_spec("NW", OrderAxiom::kNone,
                          {CubeSpec{false, true, false}}, false));
    v.push_back(make_spec("WN", OrderAxiom::kNone,
                          {CubeSpec{true, false, false}}, false));
    v.push_back(make_spec("WW", OrderAxiom::kNone,
                          {CubeSpec{true, true, false}}, false));
    v.push_back(make_spec("WN+", OrderAxiom::kNone,
                          {CubeSpec{true, false, false}}, true));
    v.push_back(make_spec("NN+", OrderAxiom::kNone,
                          {CubeSpec{false, false, false}}, true));
    return v;
  }();
  return specs;
}

std::vector<ModelSpec> core_model_specs() {
  const std::vector<ModelSpec>& all = builtin_model_specs();
  return {all.begin(), all.begin() + 6};
}

ModelSpec coherence_spec() {
  return make_spec("COH", OrderAxiom::kPerLocation, {}, false);
}

ModelSpec partition_spec(std::string name, std::vector<ScopeSpec> scopes) {
  ModelSpec s;
  s.name = std::move(name);
  s.order = OrderAxiom::kScoped;
  s.scopes = std::move(scopes);
  s.normalize();
  return s;
}

ModelSpec tso_like_spec() {
  // WN ∩ NW ∩ freshness: write-read and read-write triple patterns both
  // serialize and reads never miss a dag-earlier write; no global sort.
  return make_spec("TSO", OrderAxiom::kNone,
                   {CubeSpec{true, false, false}, CubeSpec{false, true, false}},
                   true);
}

std::vector<ModelSpec> bundled_spec_pack() {
  std::vector<ModelSpec> pack;
  pack.push_back(partition_spec("PC2", {ScopeSpec{{0, 1}}, ScopeSpec{{2, 3}}}));
  pack.push_back(coherence_spec());
  pack.push_back(tso_like_spec());
  return pack;
}

}  // namespace ccmm
