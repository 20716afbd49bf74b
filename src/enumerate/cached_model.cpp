#include "enumerate/cached_model.hpp"

#include "models/compile.hpp"
#include "util/memo_cache.hpp"

namespace ccmm {
namespace {

/// Above this size, canonicalization costs more than most membership
/// checks save; fall through to the inner model.
constexpr std::size_t kCacheNodeCap = 24;

/// Builds "prefix \x1e canonical-C \x1f transported-Φ" into a reusable
/// per-thread buffer. The exhaustive sweeps issue millions of lookups;
/// reusing one buffer per thread turns the per-call allocation churn of
/// the old `std::string key = tag_; key += ...` pattern into amortized
/// zero (the buffer grows to the high-water mark once and stays there).
const std::string& orbit_key(const std::string& prefix, const Computation& c,
                             const ObserverFunction& phi) {
  thread_local std::string key;
  key.assign(prefix);
  const CanonicalForm cf = canonical_form(c);
  key += cf.encoding;
  key.push_back('\x1f');
  key += encode_observer(transport_observer(phi, cf.map));
  return key;
}

}  // namespace

CachedModel::CachedModel(std::shared_ptr<const MemoryModel> inner)
    : inner_(std::move(inner)) {
  CCMM_CHECK(inner_ != nullptr, "null model");
  // cache_tag, not name: compiled spec models key by structure, so a
  // renamed or differently-parameterized spec never aliases an entry.
  tag_ = inner_->cache_tag();
  tag_.push_back('\x1e');
}

bool CachedModel::contains(const Computation& c,
                           const ObserverFunction& phi) const {
  // Oversized computations and malformed observers (models reject the
  // latter themselves) bypass the cache.
  if (c.node_count() > kCacheNodeCap || phi.node_count() != c.node_count())
    return inner_->contains(c, phi);
  const std::string& key = orbit_key(tag_, c, phi);
  if (const auto hit = membership_cache().lookup(key)) return *hit;
  // Membership is isomorphism-invariant, so answering on the original
  // labeling and caching under the canonical key is sound.
  const bool member = inner_->contains(c, phi);
  membership_cache().insert(key, member);
  return member;
}

bool CachedModel::contains_prepared(const PreparedPair& p) const {
  const Computation& c = p.computation();
  const ObserverFunction& phi = p.observer();
  if (c.node_count() > kCacheNodeCap || phi.node_count() != c.node_count())
    return inner_->contains_prepared(p);
  const std::string& key = orbit_key(tag_, c, phi);
  if (const auto hit = membership_cache().lookup(key)) return *hit;
  const bool member = inner_->contains_prepared(p);
  membership_cache().insert(key, member);
  return member;
}

std::shared_ptr<const MemoryModel> cached(
    std::shared_ptr<const MemoryModel> inner) {
  return std::make_shared<CachedModel>(std::move(inner));
}

std::uint32_t cached_classification(const Computation& c,
                                    const ObserverFunction& phi) {
  static const ModelRegistry builtins(builtin_model_specs());
  const auto classify = [&] {
    return static_cast<std::uint32_t>(builtins.classify(prepare_pair(c, phi)));
  };
  if (c.node_count() > kCacheNodeCap || phi.node_count() != c.node_count())
    return classify();
  const std::string& key = orbit_key("builtins\x1e", c, phi);
  if (const auto hit = classification_cache().lookup(key)) return *hit;
  const std::uint32_t mask = classify();
  classification_cache().insert(key, mask);
  return mask;
}

}  // namespace ccmm
