// lint-fixture-dest: src/core/shard_maintenance.cpp
//
// lock-order positive fixture: every way of sidestepping the annotated
// guard layer — raw mutex method calls, std:: lock vocabulary, and a
// second shard guard in one function.

#include "util/thread_annotations.h"

namespace rtcac {

void manual_transition(Mutex& mutex) {
  mutex.lock();  // expect: lock-order
  mutex.unlock();  // expect: lock-order
}

void tag_dance(std::mutex& mutex) {
  std::unique_lock lock(mutex, std::defer_lock);  // expect: lock-order
  lock.try_lock();  // expect: lock-order
}

void hand_rolled_pair(SharedMutex& first, SharedMutex& second) {
  const ExclusiveLock lock_first(first);
  const SharedLock lock_second(second);  // expect: lock-order
}

// Reading two points' state under hand-rolled shared locks is exactly
// the multi-shard acquisition ShardLockSet exists for.
void refresh_two_points(SharedMutex& shard_a, SharedMutex& shard_b) {
  const SharedLock pin_a(shard_a);
  const SharedLock pin_b(shard_b);  // expect: lock-order
}

}  // namespace rtcac
