#include "util/span_set.hpp"

#include <algorithm>

namespace ccmm {

SpanSet::word_type SpanSet::word_at(std::size_t wi) const noexcept {
  word_type w = 0;
  switch (rep_) {
    case Rep::kEmpty:
      return 0;
    case Rep::kFull:
      w = ~word_type{0};
      break;
    case Rep::kBlob:
      if (wi < first_word_ || wi >= first_word_ + words_.size()) return 0;
      w = words_[wi - first_word_];
      break;
  }
  if (wi + 1 == universe_words()) w &= tail_mask();
  return w;
}

void SpanSet::grow_to_cover(std::size_t wi) {
  if (rep_ != Rep::kBlob) {
    // Fresh blob: a single word anchored at wi. The geometric growth
    // below supplies slack only once a second region is touched.
    rep_ = Rep::kBlob;
    first_word_ = wi;
    words_.assign(1, 0);
    return;
  }
  const std::size_t last = first_word_ + words_.size();  // exclusive
  if (wi >= first_word_ && wi < last) return;
  // Extend by at least half the current blob so repeated adjacent
  // misses amortize to O(log) reallocations, clamped to the universe.
  const std::size_t slack = words_.size() / 2 + 1;
  std::size_t new_first = first_word_;
  std::size_t new_last = last;
  if (wi < first_word_) {
    new_first = wi > slack ? wi - slack : 0;
  } else {
    new_last = std::min(universe_words(), std::max(wi + 1, last + slack));
    if (wi >= new_last) new_last = wi + 1;  // universe clamp can't lose wi
  }
  const std::size_t new_size = new_last - new_first;
  const auto shift = static_cast<std::ptrdiff_t>(first_word_ - new_first);
  if (new_size <= words_.capacity()) {
    // Room kept from an earlier universe (reset_universe): slide the
    // words up in place and zero the words uncovered below them.
    const auto old_size = static_cast<std::ptrdiff_t>(words_.size());
    words_.resize(new_size, 0);
    std::copy_backward(words_.begin(), words_.begin() + old_size,
                       words_.begin() + shift + old_size);
    std::fill(words_.begin(), words_.begin() + shift, 0);
  } else {
    std::vector<word_type> grown(new_size, 0);
    std::copy(words_.begin(), words_.end(), grown.begin() + shift);
    words_ = std::move(grown);
  }
  first_word_ = new_first;
}

void SpanSet::set(std::size_t i) {
  CCMM_ASSERT(i < size_);
  if (rep_ == Rep::kFull) return;
  const std::size_t wi = i / kWordBits;
  grow_to_cover(wi);
  words_[wi - first_word_] |= word_type{1} << (i % kWordBits);
}

void SpanSet::reset(std::size_t i) {
  CCMM_ASSERT(i < size_);
  if (rep_ == Rep::kEmpty) return;
  const std::size_t wi = i / kWordBits;
  if (rep_ == Rep::kFull) {
    // Deflate kFull to an explicit blob over the whole universe, then
    // clear the one bit. This is the expensive transition the callers
    // in the streaming paths never take (they only grow sets).
    rep_ = Rep::kBlob;
    first_word_ = 0;
    words_.assign(universe_words(), ~word_type{0});
    if (!words_.empty()) words_.back() &= tail_mask();
  }
  if (wi < first_word_ || wi >= first_word_ + words_.size()) return;
  words_[wi - first_word_] &= ~(word_type{1} << (i % kWordBits));
}

std::size_t SpanSet::count() const noexcept {
  switch (rep_) {
    case Rep::kEmpty:
      return 0;
    case Rep::kFull:
      return size_;
    case Rep::kBlob:
      break;
  }
  std::size_t n = 0;
  for (const word_type w : words_)
    n += static_cast<std::size_t>(__builtin_popcountll(w));
  return n;
}

bool SpanSet::none() const noexcept {
  switch (rep_) {
    case Rep::kEmpty:
      return true;
    case Rep::kFull:
      return size_ == 0;
    case Rep::kBlob:
      break;
  }
  for (const word_type w : words_)
    if (w != 0) return false;
  return true;
}

void SpanSet::normalize() {
  if (rep_ != Rep::kBlob) return;
  // Shave zero words off both ends.
  std::size_t lo = 0;
  std::size_t hi = words_.size();
  while (lo < hi && words_[lo] == 0) ++lo;
  while (hi > lo && words_[hi - 1] == 0) --hi;
  if (lo == hi) {
    clear();
    return;
  }
  if (lo > 0 || hi < words_.size()) {
    std::vector<word_type> shaved(words_.begin() + static_cast<std::ptrdiff_t>(lo),
                                  words_.begin() + static_cast<std::ptrdiff_t>(hi));
    words_ = std::move(shaved);
    first_word_ += lo;
  }
  if (count() == size_) make_full();
}

bool SpanSet::operator==(const SpanSet& o) const noexcept {
  if (size_ != o.size_) return false;
  const std::size_t nwords = universe_words();
  for (std::size_t wi = 0; wi < nwords; ++wi)
    if (word_at(wi) != o.word_at(wi)) return false;
  return true;
}

DynBitset SpanSet::to_bitset() const {
  DynBitset out(size_);
  if (rep_ == Rep::kEmpty) return out;
  if (rep_ == Rep::kFull) {
    out.set_all();
    return out;
  }
  for_each([&](std::size_t i) { out.set(i); });
  return out;
}

SpanSet SpanSet::from_bitset(const DynBitset& b) {
  SpanSet out(b.size());
  std::size_t lo = b.word_count();
  std::size_t hi = 0;
  for (std::size_t wi = 0; wi < b.word_count(); ++wi) {
    if (b.word(wi) == 0) continue;
    lo = std::min(lo, wi);
    hi = wi + 1;
  }
  if (hi == 0) return out;  // stays kEmpty
  out.rep_ = Rep::kBlob;
  out.first_word_ = lo;
  out.words_.resize(hi - lo);
  for (std::size_t wi = lo; wi < hi; ++wi) out.words_[wi - lo] = b.word(wi);
  out.normalize();  // all-ones input collapses to kFull
  return out;
}

}  // namespace ccmm
