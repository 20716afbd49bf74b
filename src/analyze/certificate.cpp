#include "analyze/certificate.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "core/last_writer.hpp"
#include "enumerate/observer_enum.hpp"
#include "models/compile.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"

namespace ccmm::analyze {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv(std::uint64_t& h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

struct CrossValidation {
  bool ok = true;
  std::string reason;
  std::size_t prefixes = 0;
  std::size_t observers = 0;
};

/// The theorem spot-check: sample nodes, take their bounded ancestor
/// closures (downward closed ⇒ prefixes, race-free because precedence
/// is preserved downward), enumerate every valid observer of each
/// prefix, classify it against the six models and demand the
/// agreement the theorem actually licenses:
///
///  * per-observer lattice coherence — membership is upward closed
///    along SC ⊆ LC ⊆ NN ⊆ {NW, WN} ⊆ WW. The classification runs
///    unpruned, so each bit is its own checker's answer and the check
///    can fail;
///  * no model admits a stale read: a read that observes a write
///    observes its unique last preceding writer (race-freedom makes
///    "last" well defined);
///  * under SC, LC, NN and NW the ⊥ escape is excluded too, so those
///    four admit exactly one read behaviour — the deterministic one;
///  * the canonical last-writer observer is accepted by all six.
///
/// Any failure means a checker disagrees with the theorem (or the
/// computation was not race-free after all) — the certificate must not
/// be issued/accepted.
CrossValidation cross_validate(const Computation& c,
                               const CertifyOptions& options,
                               std::uint64_t seed) {
  CrossValidation cv;
  const std::size_t n = c.node_count();
  if (n == 0 || options.samples == 0) return cv;
  Rng rng(seed);
  const ModelRegistry registry(core_model_specs(),
                               CompileOptions{options.sc_budget});
  RegistryOptions unpruned;
  unpruned.short_circuit = false;
  CheckContext ctx;
  const auto classify = [&](const Computation& w, const ObserverFunction& phi,
                            bool* exhausted) {
    return static_cast<std::uint32_t>(
        registry.classify(ctx.prepare(w, phi), unpruned, exhausted));
  };
  // Weaker-model bits implied by each model bit (one lattice step).
  constexpr std::uint32_t kImplies[6] = {
      kSuiteLC,            // SC ⊆ LC
      kSuiteNN,            // LC ⊆ NN
      kSuiteNW | kSuiteWN, // NN ⊆ NW, NN ⊆ WN
      kSuiteWW,            // NW ⊆ WW
      kSuiteWW,            // WN ⊆ WW
      0,
  };
  constexpr std::uint32_t kDeterministic =
      kSuiteSC | kSuiteLC | kSuiteNN | kSuiteNW;
  std::size_t attempts = options.samples * 8;
  while (cv.prefixes < options.samples && attempts-- > 0) {
    const NodeId u = static_cast<NodeId>(rng.below(n));
    const std::optional<DynBitset> keep =
        bounded_ancestor_closure(c.dag(), {u}, options.prefix_node_cap);
    if (!keep.has_value()) continue;
    const Computation w = c.induced(*keep);
    if (observer_count(w) > options.observer_budget) continue;

    // Deterministic expectation per read: the unique last writer of its
    // location preceding it (⊥ when none precedes — race-freedom rules
    // out concurrent writers). O(reads · nodes) on a capped prefix.
    std::vector<std::pair<NodeId, NodeId>> expect;  // (read, last writer)
    for (NodeId r = 0; r < w.node_count(); ++r) {
      const Op o = w.op(r);
      if (!o.is_read()) continue;
      NodeId last = kBottom;
      for (NodeId x = 0; x < w.node_count(); ++x)
        if (w.op(x).writes(o.loc) && w.precedes(x, r) &&
            (last == kBottom || w.precedes(last, x)))
          last = x;
      expect.emplace_back(r, last);
    }

    bool agreed = true;
    const auto flag = [&](std::string reason) {
      agreed = false;
      cv.reason = std::move(reason);
    };
    for_each_observer(w, [&](const ObserverFunction& phi) {
      bool exhausted = false;
      const std::uint32_t mask = classify(w, phi, &exhausted);
      ++cv.observers;
      if (exhausted) {
        flag(format("SC budget exhausted on the prefix rooted at node %u",
                    u));
        return false;
      }
      for (int b = 0; b < 6; ++b)
        if ((mask & (1u << b)) != 0 &&
            (mask & kImplies[b]) != kImplies[b]) {
          flag(format("lattice inclusion violated on the prefix rooted at "
                      "node %u: suite mask 0x%x",
                      u, mask));
          return false;
        }
      if ((mask & kDrfModelMask) == 0) return true;
      for (const auto& [r, last] : expect) {
        const NodeId seen = phi.get(w.op(r).loc, r);
        const bool stale = seen != last && seen != kBottom;
        const bool missed = seen == kBottom && last != kBottom;
        if (stale || (missed && (mask & kDeterministic) != 0)) {
          flag(format("%s read on the race-free prefix rooted at node %u: "
                      "node %u observes %d, last preceding writer is %d "
                      "(suite mask 0x%x)",
                      stale ? "stale" : "nondeterministic", u, r,
                      seen == kBottom ? -1 : static_cast<int>(seen),
                      last == kBottom ? -1 : static_cast<int>(last), mask));
          return false;
        }
      }
      return true;
    });
    if (agreed) {
      // The deterministic behaviour itself must be admitted everywhere:
      // the canonical last-writer observer lies in all six models.
      const ObserverFunction lw = last_writer(w, w.dag().topological_order());
      bool exhausted = false;
      const std::uint32_t mask = classify(w, lw, &exhausted);
      ++cv.observers;
      if (exhausted || (mask & kDrfModelMask) != kDrfModelMask)
        flag(format("canonical last-writer observer rejected on the prefix "
                    "rooted at node %u: suite mask 0x%x (expected 0x%x)%s",
                    u, mask, kDrfModelMask,
                    exhausted ? ", SC budget exhausted" : ""));
    }
    if (!agreed) {
      cv.ok = false;
      return cv;
    }
    ++cv.prefixes;
  }
  return cv;
}

/// json helpers: the certificate is one flat object, so a hand-rolled
/// scanner beats a dependency.
void put(std::string& out, const char* key, std::uint64_t v, bool hex = false) {
  if (out.back() != '{') out += ",";
  out += format(hex ? "\"%s\":\"%016llx\"" : "\"%s\":%llu", key,
                static_cast<unsigned long long>(v));
}

std::optional<std::string> scan_value(const std::string& json,
                                      const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::size_t i = at + needle.size();
  while (i < json.size() && std::isspace(static_cast<unsigned char>(json[i])))
    ++i;
  if (i >= json.size()) return std::nullopt;
  if (json[i] == '"') {
    const std::size_t end = json.find('"', i + 1);
    if (end == std::string::npos) return std::nullopt;
    return json.substr(i + 1, end - i - 1);
  }
  std::size_t end = i;
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  return json.substr(i, end - i);
}

bool scan_u64(const std::string& json, const std::string& key,
              std::uint64_t& out, int base = 10) {
  const std::optional<std::string> v = scan_value(json, key);
  if (!v.has_value() || v->empty()) return false;
  char* end = nullptr;
  out = std::strtoull(v->c_str(), &end, base);
  return end != nullptr && *end == '\0';
}

}  // namespace

std::uint64_t computation_fingerprint(const Computation& c) {
  std::uint64_t h = kFnvOffset;
  fnv(h, c.node_count());
  fnv(h, c.dag().edge_count());
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    fnv(h, (static_cast<std::uint64_t>(o.loc) << 8) |
               static_cast<std::uint64_t>(o.kind));
  }
  for (NodeId u = 0; u < c.node_count(); ++u)
    for (const NodeId v : c.dag().succ(u))
      fnv(h, (static_cast<std::uint64_t>(u) << 32) | v);
  return h;
}

std::optional<DrfCertificate> make_drf_certificate(const Computation& c,
                                                   const CertifyOptions&
                                                       options,
                                                   std::string* why) {
  RaceScanStats st;
  const std::optional<Race> race = find_first_race(c, options.scan, &st);
  if (race.has_value()) {
    if (why != nullptr)
      *why = format("computation has a race: nodes %u and %u on location %u",
                    race->a, race->b, race->loc);
    return std::nullopt;
  }
  DrfCertificate cert;
  cert.fingerprint = computation_fingerprint(c);
  cert.nodes = c.node_count();
  cert.edges = c.dag().edge_count();
  cert.locations = st.locations;
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    cert.writes += o.is_write() ? 1 : 0;
    cert.reads += o.is_read() ? 1 : 0;
  }
  cert.oracle_kind = st.oracle_kind;
  cert.seed = options.seed;

  const CrossValidation cv = cross_validate(c, options, options.seed);
  if (!cv.ok) {
    if (why != nullptr) *why = "cross-validation failed: " + cv.reason;
    return std::nullopt;
  }
  cert.sampled_prefixes = cv.prefixes;
  cert.checked_observers = cv.observers;
  return cert;
}

CertificateCheck verify_drf_certificate(const Computation& c,
                                        const DrfCertificate& cert,
                                        const CertifyOptions& options) {
  CertificateCheck check;
  const auto fail = [&](std::string reason) {
    check.ok = false;
    check.reason = std::move(reason);
    return check;
  };
  if (cert.version != 1)
    return fail(format("unsupported certificate version %u", cert.version));
  if ((cert.models & kDrfModelMask) != kDrfModelMask)
    return fail("certificate does not cover the six-model hierarchy");
  if (cert.nodes != c.node_count() || cert.edges != c.dag().edge_count())
    return fail(format(
        "structure mismatch: certificate says %zu nodes / %zu edges, "
        "computation has %zu / %zu",
        cert.nodes, cert.edges, c.node_count(), c.dag().edge_count()));
  if (cert.fingerprint != computation_fingerprint(c))
    return fail("fingerprint mismatch: certificate was issued for a "
                "different computation");

  // The race-freedom proof: O(accesses) oracle queries, phase 1 only.
  CertifyOptions opt = options;
  const std::optional<Race> race = find_first_race(c, opt.scan);
  if (race.has_value())
    return fail(format(
        "computation is NOT race-free: nodes %u and %u race on location %u",
        race->a, race->b, race->loc));

  // Replay the theorem spot-check from the recorded seed.
  const CrossValidation cv = cross_validate(c, opt, cert.seed);
  if (!cv.ok) return fail("cross-validation failed: " + cv.reason);
  return check;
}

std::string DrfCertificate::to_json() const {
  std::string out = "{";
  put(out, "ccmm_drf_certificate", version);
  put(out, "fingerprint", fingerprint, /*hex=*/true);
  put(out, "nodes", nodes);
  put(out, "edges", edges);
  put(out, "locations", locations);
  put(out, "writes", writes);
  put(out, "reads", reads);
  if (out.back() != '{') out += ",";
  out += format("\"oracle\":\"%s\"", oracle_kind.c_str());
  put(out, "models", models);
  put(out, "seed", seed);
  put(out, "sampled_prefixes", sampled_prefixes);
  put(out, "checked_observers", checked_observers);
  out += "}";
  return out;
}

std::string DrfCertificate::to_string() const {
  return format(
      "DRF certificate: %zu nodes, %zu edges, %zu contended location(s), "
      "%zu write(s)/%zu read(s); race-free via the %s oracle, so SC, LC, "
      "NN, NW, WN and WW agree on every read: no model admits a stale "
      "write, and the four strong models force the deterministic "
      "last-writer behaviour (cross-validated on %zu sampled prefix(es), "
      "%zu observer(s)); fingerprint %016llx",
      nodes, edges, locations, writes, reads, oracle_kind.c_str(),
      sampled_prefixes, checked_observers,
      static_cast<unsigned long long>(fingerprint));
}

std::optional<DrfCertificate> parse_drf_certificate(const std::string& json,
                                                    std::string* why) {
  const auto fail = [&](const char* reason) {
    if (why != nullptr) *why = reason;
    return std::nullopt;
  };
  DrfCertificate cert;
  std::uint64_t v = 0;
  if (!scan_u64(json, "ccmm_drf_certificate", v))
    return fail("not a ccmm DRF certificate (missing version key)");
  cert.version = static_cast<std::uint32_t>(v);
  if (!scan_u64(json, "fingerprint", cert.fingerprint, 16))
    return fail("missing or malformed fingerprint");
  const auto size_field = [&](const char* key, std::size_t& out) {
    std::uint64_t x = 0;
    if (!scan_u64(json, key, x)) return false;
    out = static_cast<std::size_t>(x);
    return true;
  };
  if (!size_field("nodes", cert.nodes) || !size_field("edges", cert.edges) ||
      !size_field("locations", cert.locations) ||
      !size_field("writes", cert.writes) || !size_field("reads", cert.reads) ||
      !size_field("sampled_prefixes", cert.sampled_prefixes) ||
      !size_field("checked_observers", cert.checked_observers))
    return fail("missing or malformed count field");
  if (!scan_u64(json, "models", v)) return fail("missing models mask");
  cert.models = static_cast<std::uint32_t>(v);
  if (!scan_u64(json, "seed", cert.seed)) return fail("missing seed");
  const std::optional<std::string> oracle = scan_value(json, "oracle");
  if (!oracle.has_value()) return fail("missing oracle kind");
  cert.oracle_kind = *oracle;
  return cert;
}

}  // namespace ccmm::analyze
