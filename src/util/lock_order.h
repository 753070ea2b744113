// rtcac/util/lock_order.h
//
// Runtime lock-order audit for the sharded admission engine.
//
// ConcurrentCac's deadlock-freedom argument is "shard locks are always
// acquired in ascending shard-id order" (concurrent_cac.h).  The static
// side of that discipline is enforced by clang thread-safety
// annotations (util/thread_annotations.h) plus the `lock-order` lint
// rule — but shard ids are runtime values, so the *order* itself is
// beyond any static analysis.  LockOrderAudit closes that gap
// dynamically: a thread-local stack of currently held shard ids, with
// every acquisition asserting strict ascent over the stack top and
// every release asserting LIFO discipline.
//
// The audit is armed only under RTCAC_CONTRACT_AUDIT (Debug builds, or
// -DRTCAC_AUDIT=ON; see util/contract.h) — Release builds compile it to
// nothing, keeping the admission hot path untouched.  A violation fires
// RTCAC_ASSERT, i.e. throws ContractViolation (or traps) before the
// would-be deadlock can form.
//
// Only *shard* (SharedMutex state) locks participate: the small leaf
// mutexes (Shard::pending_mutex, AdmissionEngine::records_mutex_) are
// never held while acquiring a shard lock, which the annotations prove
// statically, so they stay off the stack.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/contract.h"

namespace rtcac {

#if RTCAC_AUDIT_ENABLED

class LockOrderAudit {
 public:
  /// Record acquisition of `shard`'s lock; asserts the canonical
  /// discipline (strictly ascending over every shard lock already held
  /// by this thread — which also rules out recursive acquisition).
  static void push(std::size_t shard) {
    std::vector<std::size_t>& held = stack();
    RTCAC_ASSERT(held.empty() || held.back() < shard,
                 "lock-order: shard " + std::to_string(shard) +
                     " acquired while holding shard " +
                     std::to_string(held.back()) +
                     "; shard locks must be taken in ascending id order");
    held.push_back(shard);
  }

  /// Record release of `shard`'s lock; asserts LIFO release order.
  static void pop(std::size_t shard) {
    std::vector<std::size_t>& held = stack();
    RTCAC_ASSERT(!held.empty() && held.back() == shard,
                 "lock-order: shard " + std::to_string(shard) +
                     " released out of LIFO order");
    held.pop_back();
  }

  /// Number of shard locks the calling thread currently holds.
  [[nodiscard]] static std::size_t depth() { return stack().size(); }

  /// RAII form for the single-shard acquire paths: push on entry, pop on
  /// exit.  Declare it just before the lock guard, so the recorded span
  /// covers the lock's lifetime.
  class Scope {
   public:
    explicit Scope(std::size_t shard) : shard_(shard) { push(shard_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { pop(shard_); }

   private:
    std::size_t shard_;
  };

 private:
  static std::vector<std::size_t>& stack() {
    thread_local std::vector<std::size_t> held;
    return held;
  }
};

#else  // !RTCAC_AUDIT_ENABLED

/// Release shell: every member compiles to nothing.
class LockOrderAudit {
 public:
  static void push(std::size_t) {}
  static void pop(std::size_t) {}
  [[nodiscard]] static std::size_t depth() { return 0; }

  class Scope {
   public:
    explicit Scope(std::size_t) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };
};

#endif  // RTCAC_AUDIT_ENABLED

}  // namespace rtcac
