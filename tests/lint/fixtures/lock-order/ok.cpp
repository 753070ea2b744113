// lint-fixture-dest: src/core/shard_maintenance.cpp
//
// lock-order negative fixture: one shard guard per function is fine,
// as are raw lock transitions inside ConcurrentCac::ShardLockSet
// members — the scoped capability that implements the canonical
// ascending acquisition order is the rule's one sanctioned home.

#include "core/concurrent_cac.h"
#include "util/thread_annotations.h"

namespace rtcac {

double read_side(SharedMutex& mutex, const double& bound) {
  const SharedLock lock(mutex);
  return bound;
}

void write_side(SharedMutex& mutex, double& bound) {
  const ExclusiveLock lock(mutex);
  bound = 0;
}

// A leaf Mutex (not shard state) taken in the same function as one
// shard guard, as ConcurrentCac::drain_removals takes a shard's
// pending_mutex and then its exclusive lock.  MutexLock guards do not
// count as shard-state guards, so this is one shard guard per function,
// which the rule allows.
void refresh_point_slot(Mutex& refresh_mutex, SharedMutex& shard,
                        double& slot) {
  const MutexLock refresh(refresh_mutex);
  const SharedLock pin(shard);
  slot = 0;
}

ConcurrentCac::ShardLockSet::ShardLockSet(ConcurrentCac& owner,
                                          std::span<const HopSpec> hops) {
  for (const HopSpec& hop : hops) {
    owner.shard_at(hop.shard).mutex.lock();
  }
}

ConcurrentCac::ShardLockSet::~ShardLockSet() {
  for (const std::size_t shard : shards_) {
    owner_.shard_at(shard).mutex.unlock();
  }
}

}  // namespace rtcac
