// ccmm/core/location_index.hpp
//
// The one location index: which nodes write and read each location.
// Every model the paper decides is a statement about one location's
// column Φ(l, ·) (LC serializes each location on its own, Definition
// 18), so the checking session, observer_from_trace, the race engines
// and the memory lints all start here. It holds
//
//   * the written locations, sorted: slot i is location(i);
//   * for each node, slot << 1 | is-write, or kNoWrittenLoc for nops
//     and for accesses of never-written locations (no write can race
//     with them or be observed there);
//   * each slot's writer count.
//
// One pass over the ops keys every access and counts each key's
// writers; a second, over the node table, turns keys into slots. While
// every id is below n + 1024 a location's key is its id, so the written
// locations come out sorted with no lookup and no sort; a larger id
// restarts the first pass with first-appearance numbers as keys, and
// the written ones are sorted. build_csr() adds each slot's writers
// (and accessors, with their counts) on demand, as id-ascending slices
// of one flat array each. The checking session builds the writer slices
// only when its first location materializes; the race scans build both.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/computation.hpp"

namespace ccmm {

/// "No written location": the index entry of nops and of accesses to
/// never-written locations.
inline constexpr std::uint32_t kNoWrittenLoc = 0xFFFFFFFFu;

class LocationIndex {
 public:
  LocationIndex() = default;
  explicit LocationIndex(const Computation& c);

  /// How many locations are written.
  [[nodiscard]] std::size_t size() const noexcept { return locs_.size(); }
  /// The written locations, sorted; slot i is locations()[i].
  [[nodiscard]] const std::vector<Location>& locations() const noexcept {
    return locs_;
  }
  [[nodiscard]] Location location(std::size_t i) const { return locs_[i]; }

  /// node → slot << 1 | is-write, kNoWrittenLoc for every other node.
  [[nodiscard]] const std::vector<std::uint32_t>& table() const noexcept {
    return access_;
  }
  [[nodiscard]] std::uint32_t operator[](NodeId u) const { return access_[u]; }

  [[nodiscard]] std::size_t writer_count(std::size_t i) const {
    return wri_head_[i + 1] - wri_head_[i];
  }
  /// Slot i's accessors (readers and writers); build_csr(true) first.
  [[nodiscard]] std::size_t accessor_count(std::size_t i) const {
    return acc_head_[i + 1] - acc_head_[i];
  }

  /// Build each slot's writers, and its accessors too when `accessors`
  /// (after a pass that counts them), in one pass over the node table;
  /// slices already built are kept. While the writers are placed,
  /// `on_writer(u, i, k)` sees writer u become the k-th (from 0) of
  /// slot i.
  template <typename OnWriter>
  void build_csr(bool accessors, const OnWriter& on_writer) {
    const bool writers = wri_.size() != wri_head_.back();
    accessors = accessors && acc_head_.empty();
    if (!writers && !accessors) return;
    if (writers) wri_.resize(wri_head_.back());
    if (accessors) count_accessors();
    // Scanning ids upward keeps every slice id-ascending.
    std::vector<std::uint32_t> wri_at(wri_head_.begin(), wri_head_.end() - 1);
    std::vector<std::uint32_t> acc_at = acc_head_;
    for (NodeId u = 0; u < access_.size(); ++u) {
      const std::uint32_t a = access_[u];
      if (a == kNoWrittenLoc) continue;
      const std::uint32_t i = a >> 1;
      if (accessors) acc_[acc_at[i]++] = u;
      if (!writers || (a & 1u) == 0) continue;
      on_writer(u, i, wri_at[i] - wri_head_[i]);
      wri_[wri_at[i]++] = u;
    }
  }
  void build_csr(bool accessors) {
    build_csr(accessors, [](NodeId, std::uint32_t, std::uint32_t) {});
  }
  /// Free the node table once only the counts and slices are read.
  void drop_table() { std::vector<std::uint32_t>().swap(access_); }
  /// Slot i's writers (accessors), id-ascending; build_csr() first.
  [[nodiscard]] std::span<const NodeId> writers(std::size_t i) const {
    return {wri_.data() + wri_head_[i], writer_count(i)};
  }
  [[nodiscard]] std::span<const NodeId> accessors(std::size_t i) const {
    return {acc_.data() + acc_head_[i], accessor_count(i)};
  }

  /// Bytes of the node table, the locations and the writer counts.
  [[nodiscard]] std::size_t table_bytes() const noexcept;
  /// Bytes of the slices and accessor counts built so far.
  [[nodiscard]] std::size_t csr_bytes() const noexcept;

 private:
  void count_accessors();

  std::vector<Location> locs_;
  std::vector<std::uint32_t> access_;
  // size() + 1 prefix sums of the writer counts and, once
  // build_csr(true) has counted them, of the accessor counts.
  std::vector<std::uint32_t> wri_head_ = {0};
  std::vector<std::uint32_t> acc_head_;
  std::vector<NodeId> wri_;
  std::vector<NodeId> acc_;
};

}  // namespace ccmm
