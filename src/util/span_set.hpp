// ccmm/util/span_set.hpp
//
// SpanSet: a succinct set over a fixed universe [0, size) for the
// streaming data plane. The sets that dominate memory there — closure
// frontiers, "observed" marks, drained-block sets — are usually either
// (nearly) empty, (nearly) full, or clustered in one contiguous index
// range, so a dense DynBitset wastes size/8 bytes per set. SpanSet
// stores three representations behind one interface:
//
//   kEmpty  no storage at all;
//   kFull   no storage at all (every bit of the universe is set);
//   kBlob   one interval of uint64 words {first_word, words…} covering
//           exactly the dirty region, growing geometrically at either
//           end as bits land outside it.
//
// This is the empty/full/allocated-blob idiom from the rosnt2006/asc
// Model.hpp exemplar (SNIPPETS.md), re-homed onto ccmm's word type and
// given DynBitset interop. Membership tests outside the blob are two
// compares; set() touching a new region reallocates with slack so a
// left-to-right or right-to-left fill performs O(log) reallocations.
//
// The blob never auto-collapses to kFull on set() — detecting fullness
// would cost a word scan per insertion. normalize() does the collapse
// (and empty-blob → kEmpty) on demand; operator== normalizes logically
// by comparing content, not representation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitset.hpp"
#include "util/check.hpp"

namespace ccmm {

class SpanSet {
 public:
  using word_type = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  SpanSet() = default;
  /// An empty set over the universe [0, size).
  explicit SpanSet(std::size_t size) : size_(size) {}

  [[nodiscard]] std::size_t universe_size() const noexcept { return size_; }
  [[nodiscard]] bool is_empty_rep() const noexcept {
    return rep_ == Rep::kEmpty;
  }
  [[nodiscard]] bool is_full_rep() const noexcept { return rep_ == Rep::kFull; }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    CCMM_ASSERT(i < size_);
    if (rep_ == Rep::kEmpty) return false;
    if (rep_ == Rep::kFull) return true;
    const std::size_t wi = i / kWordBits;
    if (wi < first_word_ || wi >= first_word_ + words_.size()) return false;
    return (words_[wi - first_word_] >> (i % kWordBits)) & 1u;
  }

  void set(std::size_t i);
  void reset(std::size_t i);

  /// Drop to the empty representation (frees the blob — capacity
  /// included, so memory_bytes() really returns to 0).
  void clear() {
    rep_ = Rep::kEmpty;
    first_word_ = 0;
    std::vector<word_type>().swap(words_);
  }
  /// Empty the set over a new universe [0, size), keeping the blob's
  /// capacity: a set refilled run after run allocates again only when
  /// a run outgrows every earlier one. memory_bytes() still counts the
  /// kept capacity.
  void reset_universe(std::size_t size) {
    size_ = size;
    rep_ = Rep::kEmpty;
    first_word_ = 0;
    words_.clear();
  }
  /// Jump to the full representation (frees the blob).
  void make_full() {
    rep_ = size_ == 0 ? Rep::kEmpty : Rep::kFull;
    first_word_ = 0;
    std::vector<word_type>().swap(words_);
  }

  [[nodiscard]] std::size_t count() const noexcept;
  [[nodiscard]] bool none() const noexcept;
  [[nodiscard]] bool any() const noexcept { return !none(); }

  /// Collapse an all-ones blob to kFull and an all-zero blob to kEmpty,
  /// and shave zero words off the blob's ends. Purely representational.
  void normalize();

  /// Iterate set indices in increasing order: f(std::size_t).
  template <typename F>
  void for_each(F&& f) const {
    if (rep_ == Rep::kEmpty) return;
    if (rep_ == Rep::kFull) {
      for (std::size_t i = 0; i < size_; ++i) f(i);
      return;
    }
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      word_type w = words_[wi];
      while (w != 0) {
        const auto bit = static_cast<std::size_t>(__builtin_ctzll(w));
        f((first_word_ + wi) * kWordBits + bit);
        w &= w - 1;
      }
    }
  }

  /// Heap bytes owned by this set — the quantity the succinct encoding
  /// exists to minimize. kEmpty/kFull report 0.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return words_.capacity() * sizeof(word_type);
  }

  /// Content equality over the universe, independent of representation
  /// (an un-normalized all-ones blob equals kFull).
  [[nodiscard]] bool operator==(const SpanSet& o) const noexcept;

  [[nodiscard]] DynBitset to_bitset() const;
  [[nodiscard]] static SpanSet from_bitset(const DynBitset& b);

 private:
  enum class Rep : std::uint8_t { kEmpty, kFull, kBlob };

  [[nodiscard]] std::size_t universe_words() const noexcept {
    return (size_ + kWordBits - 1) / kWordBits;
  }
  /// Re-anchor the blob so it covers word index `wi`, with geometric
  /// slack on the side being extended.
  void grow_to_cover(std::size_t wi);
  /// Bits of the last universe word that lie inside [0, size).
  [[nodiscard]] word_type tail_mask() const noexcept {
    const std::size_t extra = universe_words() * kWordBits - size_;
    return extra == 0 ? ~word_type{0} : ~word_type{0} >> extra;
  }
  /// The word at universe word-index wi, whatever the representation.
  [[nodiscard]] word_type word_at(std::size_t wi) const noexcept;

  std::size_t size_ = 0;
  Rep rep_ = Rep::kEmpty;
  std::size_t first_word_ = 0;
  std::vector<word_type> words_;  // engaged only in kBlob
};

}  // namespace ccmm
