// lint-fixture-dest: src/core/switch_cac.cpp
//
// cac-cache-state positive fixture: cache/dirty state — and the
// mergeable-aggregate storage (merge trees, lease index) and the live
// in-port lists — touched from a query accessor instead of the
// cache-management members.

#include "core/switch_cac.h"

namespace rtcac {

template <typename Num>
double BasicSwitchCac<Num>::peek_bound() const {
  return bound_cache_;  // expect: cac-cache-state
}

template <typename Num>
void BasicSwitchCac<Num>::touch(std::size_t cell) {
  cell_counts_[cell] += 1;  // expect: cac-cache-state
}

template <typename Num>
double BasicSwitchCac<Num>::peek_tree(std::size_t cell) {
  // A query accessor flushing a merge tree bypasses the mutation
  // contract (every mutator leaves its root path clean before return).
  return cell_trees_[cell].aggregate().final_rate();  // expect: cac-cache-state
}

template <typename Num>
std::size_t BasicSwitchCac<Num>::lease_count() const {
  return lease_index_.size();  // expect: cac-cache-state
}

template <typename Num>
std::size_t BasicSwitchCac<Num>::live_inputs(std::size_t queue) const {
  // The lists change only with the member counts, in the mutators.
  return live_in_ports_[queue].size();  // expect: cac-cache-state
}

}  // namespace rtcac
