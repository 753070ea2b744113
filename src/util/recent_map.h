// rtcac/util/recent_map.h
//
// A key-value map that keeps only the most recent writes.  Long-running
// servers record per-request results that clients read shortly after they
// are written (SignalingEngine's SETUP and MODIFY outcome windows); a map
// that kept every such result would grow with the requests served.  This
// one holds at most Capacity entries, so its memory is fixed however long
// the server runs.
//
// Read guarantee: an entry stays readable until Capacity later writes
// have happened.  Writes land in a ring in write order; once the ring is
// full, each write overwrites the oldest slot.  Rewriting a key makes it
// the newest entry (its old slot is left empty until the ring wraps).

#pragma once

#include <cstddef>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rtcac {

template <typename Key, typename Value, std::size_t Capacity>
class RecentMap {
  static_assert(Capacity >= 1, "RecentMap: capacity must be positive");

 public:
  /// Writes `value` under `key`, making it the newest entry.  Evicts the
  /// entry written Capacity writes ago, if it is still held.
  void insert_or_assign(const Key& key, Value value) {
    if (const auto it = index_.find(key); it != index_.end()) {
      slots_[it->second].reset();
      index_.erase(it);
    }
    std::size_t slot = slots_.size();
    if (slot < Capacity) {
      slots_.emplace_back();
    } else {
      slot = oldest_;
      oldest_ = (oldest_ + 1) % Capacity;
      if (slots_[slot].has_value()) index_.erase(slots_[slot]->first);
    }
    slots_[slot].emplace(key, std::move(value));
    index_.emplace(key, slot);
  }

  /// The value held under `key`; nullptr if never written or evicted.
  [[nodiscard]] const Value* find(const Key& key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &slots_[it->second]->second;
  }

  /// Entries currently held (at most Capacity).
  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }

 private:
  /// Ring of written entries in write order; grows to Capacity, then
  /// wraps.  An empty slot is a key that was rewritten since.
  std::vector<std::optional<std::pair<Key, Value>>> slots_;
  std::size_t oldest_ = 0;  ///< slot the next write overwrites once full
  std::unordered_map<Key, std::size_t> index_;  ///< key -> slot
};

}  // namespace rtcac
