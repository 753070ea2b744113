// lint-fixture-dest: src/core/switch_cac.cpp
//
// cac-cache-state negative fixture: the cache-management members
// (ensure_* / invalidate_* / rebuild_cell* / update_in_port_lists /
// rekey / lease bookkeeping / arena_stats / audits) own that state, merge
// trees and live in-port lists included.

#include "core/switch_cac.h"

namespace rtcac {

template <typename Num>
void BasicSwitchCac<Num>::ensure_bound() const {
  if (bound_dirty_) {
    bound_cache_ = 0;
    bound_dirty_ = false;
  }
}

template <typename Num>
void BasicSwitchCac<Num>::invalidate_bound() {
  bound_dirty_ = true;
}

template <typename Num>
void BasicSwitchCac<Num>::rebuild_cell(std::size_t cell) {
  cell_counts_[cell] = 0;
  arrival_aggr_[cell] = cell_trees_[cell].aggregate();
}

template <typename Num>
void BasicSwitchCac<Num>::rekey(std::size_t cell, double expiry) {
  lease_index_.emplace(expiry, 0);
  cell_members_[cell].push_back(0);
}

template <typename Num>
void BasicSwitchCac<Num>::update_in_port_lists(std::size_t queue,
                                               std::size_t in_port) {
  hp_in_ports_[queue].push_back(in_port);
}

template <typename Num>
void BasicSwitchCac<Num>::drop_lease_index_entry(double expiry) {
  lease_index_.erase(expiry);
}

template <typename Num>
CacArenaStats BasicSwitchCac<Num>::arena_stats() const {
  CacArenaStats st;
  for (const auto& tree : cell_trees_) st.held_bytes += tree.held_bytes();
  return st;
}

template <typename Num>
bool BasicSwitchCac<Num>::cache_coherent() const {
  return !bound_dirty_ || cell_counts_.empty();
}

}  // namespace rtcac
