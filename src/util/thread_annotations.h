// rtcac/util/thread_annotations.h
//
// Compile-time lock discipline for the parallel admission engine.
//
// Clang's -Wthread-safety analysis turns the locking invariants that
// concurrent_cac.h states in prose (priming under exclusive locks,
// canonical ascending shard order, guarded shard state) into
// machine-checked facts: every mutex-guarded member is declared
// RTCAC_GUARDED_BY its mutex, every lock-transition function carries
// RTCAC_ACQUIRE/RTCAC_RELEASE, and an unguarded access is a compile
// error under the `tsa` preset (-Wthread-safety -Wthread-safety-beta
// -Werror, clang only; see docs/STATIC_ANALYSIS.md).  Under GCC and
// other compilers every macro expands to nothing, so the annotated tree
// is byte-identical to the unannotated one everywhere else.
//
// The std:: primitives carry no annotations in libstdc++, so this
// header also provides the thin annotated wrappers the analysis needs:
//
//   Mutex / SharedMutex      RTCAC_CAPABILITY wrappers over std::mutex /
//                            std::shared_mutex with annotated
//                            lock/unlock transitions.
//   MutexLock                scoped exclusive guard over Mutex.
//   ExclusiveLock/SharedLock scoped exclusive / shared guards over
//                            SharedMutex — the per-shard lock vocabulary
//                            of core/concurrent_cac.h.
//
// Multi-mutex acquisition over a *dynamic* set of shard locks is beyond
// what the static analysis can express; that path is confined to the
// ConcurrentCac::ShardLockSet scoped capability, whose ascending-order
// acquisition is asserted at runtime by util/lock_order.h instead.
// RTCAC_NO_THREAD_SAFETY_ANALYSIS exists for exactly those per-site,
// comment-justified escapes — the `tsa` acceptance bar allows no others.
//
// Concurrency primitives are confined to this header, to
// core/concurrent_cac.* and net/admission_engine.* by the
// `concurrency-state` lint rule (tools/rtcac_lint.py); the
// companion `guarded-by` rule requires every mutable member of a
// mutex-owning class to carry one of these annotations.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "util/contract.h"

// Attribute spelling: clang implements the analysis; everything else
// sees empty macros.  (GCC would warn -Wattributes on the unknown
// spellings, so the no-op branch must expand to nothing, not to an
// ignored attribute.)
#if defined(__clang__)
#define RTCAC_TSA_ATTR_(x) __attribute__((x))
#else
#define RTCAC_TSA_ATTR_(x)
#endif

/// Declares a type to be a lockable capability ("mutex", "shard lock").
#define RTCAC_CAPABILITY(x) RTCAC_TSA_ATTR_(capability(x))

/// Declares an RAII type that acquires in its constructor and releases
/// in its destructor.
#define RTCAC_SCOPED_CAPABILITY RTCAC_TSA_ATTR_(scoped_lockable)

/// Member may be read/written only while holding `x` (exclusive for
/// writes, at least shared for reads).
#define RTCAC_GUARDED_BY(x) RTCAC_TSA_ATTR_(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x` (the pointer itself
/// is set once at construction).
#define RTCAC_PT_GUARDED_BY(x) RTCAC_TSA_ATTR_(pt_guarded_by(x))

/// Function requires the capability held exclusively on entry (and does
/// not release it).
#define RTCAC_REQUIRES(...) RTCAC_TSA_ATTR_(requires_capability(__VA_ARGS__))

/// Function requires at least shared ownership on entry.
#define RTCAC_REQUIRES_SHARED(...) \
  RTCAC_TSA_ATTR_(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability exclusively / shared.
#define RTCAC_ACQUIRE(...) RTCAC_TSA_ATTR_(acquire_capability(__VA_ARGS__))
#define RTCAC_ACQUIRE_SHARED(...) \
  RTCAC_TSA_ATTR_(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (exclusive / shared / whichever is
/// held — "generic" is what a scoped guard's destructor wants when it
/// may hold either mode).
#define RTCAC_RELEASE(...) RTCAC_TSA_ATTR_(release_capability(__VA_ARGS__))
#define RTCAC_RELEASE_SHARED(...) \
  RTCAC_TSA_ATTR_(release_shared_capability(__VA_ARGS__))
#define RTCAC_RELEASE_GENERIC(...) \
  RTCAC_TSA_ATTR_(release_generic_capability(__VA_ARGS__))

/// Function acquires the capability only when returning `ret`.
#define RTCAC_TRY_ACQUIRE(...) \
  RTCAC_TSA_ATTR_(try_acquire_capability(__VA_ARGS__))
#define RTCAC_TRY_ACQUIRE_SHARED(...) \
  RTCAC_TSA_ATTR_(try_acquire_shared_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (non-reentrant
/// entry points that acquire it themselves).
#define RTCAC_EXCLUDES(...) RTCAC_TSA_ATTR_(locks_excluded(__VA_ARGS__))

/// Runtime assertion to the analysis that the capability is held.
#define RTCAC_ASSERT_CAPABILITY(x) RTCAC_TSA_ATTR_(assert_capability(x))

/// Function returns a reference to the given capability.
#define RTCAC_RETURN_CAPABILITY(x) RTCAC_TSA_ATTR_(lock_returned(x))

/// Per-site escape hatch.  Every use must carry a comment justifying why
/// the access pattern is beyond the static analysis (dynamic lock sets,
/// quiesced test-only inspection) and what covers it instead
/// (util/lock_order.h audit, TSan `concurrency` label).
#define RTCAC_NO_THREAD_SAFETY_ANALYSIS \
  RTCAC_TSA_ATTR_(no_thread_safety_analysis)

namespace rtcac {

/// Audit-build (RTCAC_AUDIT_ENABLED) process-wide counters of
/// SharedMutex acquisitions.  The snapshot read path of
/// core/concurrent_cac.h promises *zero* shared_mutex traffic per
/// check; tests and the parallel bench assert that promise as a
/// shared-acquisition delta of zero across a burst of checks.  Release
/// builds compile the counting hooks to nothing and enabled() reports
/// false, so the hot path is untouched outside audit builds.
class LockStats {
 public:
  [[nodiscard]] static constexpr bool enabled() noexcept {
    return RTCAC_AUDIT_ENABLED != 0;
  }

#if RTCAC_AUDIT_ENABLED
  [[nodiscard]] static std::uint64_t exclusive_acquisitions() noexcept {
    return exclusive_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] static std::uint64_t shared_acquisitions() noexcept {
    return shared_.load(std::memory_order_relaxed);
  }
  static void count_exclusive() noexcept {
    exclusive_.fetch_add(1, std::memory_order_relaxed);
  }
  static void count_shared() noexcept {
    shared_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  static inline std::atomic<std::uint64_t> exclusive_{0};
  static inline std::atomic<std::uint64_t> shared_{0};
#else
  [[nodiscard]] static std::uint64_t exclusive_acquisitions() noexcept {
    return 0;
  }
  [[nodiscard]] static std::uint64_t shared_acquisitions() noexcept {
    return 0;
  }
  static void count_exclusive() noexcept {}
  static void count_shared() noexcept {}
#endif
};

/// std::mutex with annotated lock transitions.
class RTCAC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RTCAC_ACQUIRE() { m_.lock(); }
  bool try_lock() RTCAC_TRY_ACQUIRE(true) { return m_.try_lock(); }
  void unlock() RTCAC_RELEASE() { m_.unlock(); }

 private:
  std::mutex m_;
};

/// std::shared_mutex with annotated lock transitions; one of these
/// guards every ConcurrentCac shard.
class RTCAC_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() RTCAC_ACQUIRE() {
    LockStats::count_exclusive();
    m_.lock();
  }
  bool try_lock() RTCAC_TRY_ACQUIRE(true) {
    const bool held = m_.try_lock();
    if (held) LockStats::count_exclusive();
    return held;
  }
  void unlock() RTCAC_RELEASE() { m_.unlock(); }

  void lock_shared() RTCAC_ACQUIRE_SHARED() {
    LockStats::count_shared();
    m_.lock_shared();
  }
  bool try_lock_shared() RTCAC_TRY_ACQUIRE_SHARED(true) {
    const bool held = m_.try_lock_shared();
    if (held) LockStats::count_shared();
    return held;
  }
  void unlock_shared() RTCAC_RELEASE_SHARED() { m_.unlock_shared(); }

 private:
  std::shared_mutex m_;
};

/// Scoped exclusive guard over Mutex.
class RTCAC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) RTCAC_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() RTCAC_RELEASE() { mutex_.unlock(); }

 private:
  Mutex& mutex_;
};

/// Scoped exclusive guard over SharedMutex (one shard, write side).
class RTCAC_SCOPED_CAPABILITY ExclusiveLock {
 public:
  explicit ExclusiveLock(SharedMutex& mutex) RTCAC_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock();
  }
  ExclusiveLock(const ExclusiveLock&) = delete;
  ExclusiveLock& operator=(const ExclusiveLock&) = delete;
  ~ExclusiveLock() RTCAC_RELEASE() { mutex_.unlock(); }

 private:
  SharedMutex& mutex_;
};

/// Scoped shared guard over SharedMutex (one shard, read side).
class RTCAC_SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& mutex) RTCAC_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.lock_shared();
  }
  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;
  ~SharedLock() RTCAC_RELEASE() { mutex_.unlock_shared(); }

 private:
  SharedMutex& mutex_;
};

}  // namespace rtcac
