// Id → position lookup over a sorted id list in O(1) expected time.
//
// A VertexAgent's member list is sorted by global id, and a member's
// position in it is its dense local id (net/agent.h). MemberIndex maps a
// global id to that position with one hash and a short linear probe, where
// a search of the sorted list costs O(log m) dependent cache misses.
//
// Layout: open addressing with linear probing. The capacity is the power of
// two at least 2m, so the load factor stays at or below 1/2, and a slot is
// 16 bits holding position + 1 (0 = empty): at most 8 B per member. A probe
// confirms a hit against the list itself, so the table stores no ids. Lists
// longer than kMaxIndexed (local ids that do not fit in a slot) get no
// table, and find() falls back to binary search, O(log m) per lookup; only
// hub-like balls (a high-fan-out vertex at r >= 2) grow that long.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace mhca::net {

class MemberIndex {
 public:
  /// Longest list that gets a hash table.
  static constexpr std::size_t kMaxIndexed = 0xFFFF;

  /// Index `ids` (ascending, no duplicates). O(m). find() must be given the
  /// same list, unchanged.
  void build(const std::vector<int>& ids) {
    slots_.clear();
    if (ids.empty() || ids.size() > kMaxIndexed) return;
    const auto capacity = std::bit_ceil(2 * ids.size());
    shift_ = 32 - std::countr_zero(capacity);
    mask_ = static_cast<std::uint32_t>(capacity - 1);
    slots_.assign(capacity, 0);
    for (std::size_t pos = 0; pos < ids.size(); ++pos) {
      std::uint32_t s = home(ids[pos]);
      while (slots_[s] != 0) s = (s + 1) & mask_;
      slots_[s] = static_cast<std::uint16_t>(pos + 1);
    }
  }

  /// Position of `id` in the list given to build(), or -1.
  int find(int id, const std::vector<int>& ids) const {
    if (slots_.empty()) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), id);
      return it != ids.end() && *it == id ? static_cast<int>(it - ids.begin())
                                          : -1;
    }
    for (std::uint32_t s = home(id);; s = (s + 1) & mask_) {
      const int slot = slots_[s];
      if (slot == 0) return -1;
      if (ids[static_cast<std::size_t>(slot - 1)] == id) return slot - 1;
    }
  }

  /// The slot a probe for `id` starts at (Fibonacci hashing: the top bits
  /// of a multiplicative hash); meaningful only when capacity() > 0.
  std::uint32_t home(int id) const {
    return (static_cast<std::uint32_t>(id) * 0x9E3779B9u) >> shift_;
  }

  /// Number of slots (a power of two); 0 when the list is empty or too
  /// long to index.
  std::size_t capacity() const { return slots_.size(); }

 private:
  int shift_ = 31;
  std::uint32_t mask_ = 0;
  std::vector<std::uint16_t> slots_;  ///< Position + 1 per slot; 0 = empty.
};

}  // namespace mhca::net
