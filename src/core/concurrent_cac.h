// rtcac/core/concurrent_cac.h
//
// Sharded, thread-safe admission engine core (docs/PERFORMANCE.md,
// "Parallel admission").  The paper's CAC is evaluated per switch along a
// path (§4.1, §4.3): one switch's decision depends only on that switch's
// own bookkeeping, which makes the network-level admission problem
// naturally shardable.  ConcurrentCac holds one PolicyCac (the pluggable
// per-queueing-point admission state of core/path_eval.h; the default is
// the paper's SwitchCac behind BitstreamCacPolicy) per shard, each
// guarded by its own annotated SharedMutex (util/thread_annotations.h).
//
// Two read paths, one write path:
//
//   * Optimistic snapshot checks (the default for policies that export
//     PointSnapshots): every queueing point — one (out-port, priority)
//     queue group per out-port — publishes an *immutable* snapshot of
//     its admission state through an atomic shared_ptr, stamped with the
//     per-queue version counters it was built from.  check_hop() loads
//     the snapshot with an acquire, validates the stamps of the queues
//     the verdict depends on (priorities [p, P) of the hop's out-port —
//     any state mutation at priority r invalidates every queue q >= r,
//     so these stamps cover the whole dependency cone), and evaluates
//     the candidate against the frozen state with ZERO shared_mutex
//     traffic.  Decision and reason-string identity with the live check
//     is by construction: both run the same check algorithm
//     (core/point_snapshot.h) over the same aggregates.  Reclamation is
//     shared_ptr reference counting — a reader that pinned a snapshot
//     keeps it alive across any number of newer publications.
//
//   * Locked fallback: a reader whose slot is stale checks under the
//     shard's *shared* lock.  Every commit republishes before it
//     releases the exclusive lock, so a slot is stale only while a
//     writer is mid-commit on that shard (the shared lock waits it out)
//     or when the policy declined the export.  Policies that export no
//     snapshots always take this path, which is exactly the
//     pre-snapshot behaviour.
//
//   * admit()/remove()/reclaim()/drain_removals() take the lock
//     *exclusive*; each commit epilogue (commit_epoch) reads the
//     policy's dirty-queue set, re-primes the caches, advances the
//     per-queue version counters, and republishes the affected
//     out-ports' snapshots before the lock drops.
//
// admit() remains the commit half of a two-phase check-then-commit, now
// with validate-on-commit: a speculative check returns a CheckStamp, and
// admit_path() re-checks only hops whose stamps went stale — a hop whose
// point did not change since the speculative check reuses that verdict
// under the exclusive lock.  A stale stamp can never over-admit: stamps
// are validated against the live version counters while the shard is
// exclusively locked, so any interleaved mutation forces the full
// re-check against the exact state the connection commits into.
//
//   * admit_path() commits one connection across several shards (the
//     hops of a route).  Locks are acquired in ascending shard order —
//     the canonical order that makes concurrent multi-hop commits
//     deadlock-free — and the hop checks run check-all-then-commit-all
//     inside the locked region.  Because distinct hops live on distinct
//     switches, this is decision-identical to the serial hop-by-hop
//     walk ConnectionManager::setup performs.
//
//   * queue_remove()/drain_removals() defer teardown commits so
//     churn-heavy workloads can batch them: one drain removes a shard's
//     whole backlog via PolicyCac::remove_many, which (for the paper's
//     policy) rebuilds every touched S_ia cell once (the PR-3 batched-
//     reclaim machinery) instead of once per connection.
//
// Per-hop arrivals are policy-erased (std::any, built by prepare() and
// reused across the speculative check and the exclusive-lock re-check +
// commit), so the generic path pays the arrival construction exactly
// once per hop.  prepare() and advertised() are lock-free: both touch
// only policy state that is immutable after construction.
//
// Memory visibility: all state written under a shard's exclusive lock
// (including the mutable caches filled by priming) happens-before any
// subsequent shared acquisition of the same lock, so locked readers
// always see fully-built streams.  Snapshot readers synchronize through
// the publication cell's spin bit (acquire in, release out on both the
// read and write paths — see PublishedCell for why
// std::atomic<std::shared_ptr> is not used) and never touch the
// mutable state at all.  Different shards share no mutable state.
//
// Lock order: no lock is held while a shard lock is acquired, except the
// lower-numbered shard locks of a ShardLockSet — the scoped capability
// that confines multi-shard acquisition (ascending shard ids, audited by
// util/lock_order.h).
//
// The lock discipline above is machine-checked (docs/STATIC_ANALYSIS.md):
// shard state carries clang thread-safety annotations
// (util/thread_annotations.h) verified by the `tsa` preset, the
// `lock-order` lint rule confines multi-shard acquisition to the
// ShardLockSet scoped capability below, and util/lock_order.h asserts
// the ascending-shard runtime order in audit builds.
//
// Concurrency primitives are confined to this module, to
// util/thread_annotations.h and net/admission_engine.* by the
// `concurrency-state` lint rule (tools/rtcac_lint.py).

#pragma once

#include <any>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/path_eval.h"
#include "core/switch_cac.h"
#include "util/thread_annotations.h"

namespace rtcac {

class ConcurrentCac {
 public:
  using Stream = SwitchCac::Stream;
  using CheckResult = SwitchCac::CheckResult;

  /// One queueing point of a multi-shard path: which shard (switch) the
  /// hop crosses and how the connection is routed through it.  The
  /// arrival is policy-erased (PolicyCac::prepare / prepare()).
  struct HopSpec {
    std::size_t shard = 0;
    std::size_t in_port = 0;
    std::size_t out_port = 0;
    Priority priority = 0;
    std::any arrival;
  };

  /// Version witness of one optimistic check: the per-priority version
  /// stamps of the checked point at evaluation time (for a snapshot
  /// check, the snapshot's embedded build versions; for a locked check,
  /// the live counters frozen under the shared lock).  admit_path()
  /// compares the stamps against the live counters under the exclusive
  /// lock and reuses the speculative verdict on a match.  An empty
  /// `versions` vector is the null stamp and never validates.
  struct CheckStamp {
    std::size_t shard = 0;
    std::size_t out_port = 0;
    Priority priority = 0;
    std::vector<std::uint64_t> versions;
  };

  /// A speculative hop verdict plus the stamp that can prove it is
  /// still current at commit time.
  struct SpeculativeHop {
    HopVerdict verdict;
    CheckStamp stamp;
  };

  /// Verdict of admit_path(): per-hop verdicts up to (and including) the
  /// first rejecting hop.  `rejecting_hop` is the index into the hop
  /// span, or npos when every hop admitted (admission can then still
  /// fail the caller's acceptance predicate — `admitted` alone is
  /// authoritative).  hops_reused / hops_revalidated split the hops by
  /// whether a speculative verdict's stamp held at commit time.
  struct PathResult {
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    bool admitted = false;
    std::size_t rejecting_hop = npos;
    std::vector<HopVerdict> hops;
    std::size_t hops_reused = 0;
    std::size_t hops_revalidated = 0;
  };

  /// Caller-supplied acceptance predicate evaluated after every hop
  /// check passed but before anything is committed (e.g. the end-to-end
  /// deadline test).  Returning false rejects without mutating state.
  using PathAcceptance = bool (*)(const std::vector<HopVerdict>&, void*);

  /// Scoped capability over the exclusive locks of every distinct shard
  /// a path crosses — the *only* way more than one shard lock may be
  /// held at once (lint rule `lock-order`).  Acquisition runs in the
  /// canonical ascending shard-id order that makes concurrent multi-hop
  /// commits deadlock-free, with LockOrderAudit (util/lock_order.h)
  /// asserting the discipline per thread in audit builds.  Because the
  /// locked set is dynamic, the clang analysis cannot name the
  /// individual capabilities; all guarded state reached while the set
  /// is held therefore goes through point()/publish_epoch(), which
  /// confines the per-site RTCAC_NO_THREAD_SAFETY_ANALYSIS escapes to
  /// this class.
  class RTCAC_SCOPED_CAPABILITY ShardLockSet {
   public:
    /// Exclusively locks the distinct shards of `hops`, ascending.
    ShardLockSet(ConcurrentCac& owner, std::span<const HopSpec> hops)
        RTCAC_ACQUIRE();
    ShardLockSet(const ShardLockSet&) = delete;
    ShardLockSet& operator=(const ShardLockSet&) = delete;
    ~ShardLockSet() RTCAC_RELEASE();

    /// The locked shard ids, ascending and distinct.
    [[nodiscard]] std::span<const std::size_t> shards() const noexcept {
      return shards_;
    }

    /// Exclusive access to a locked shard's policy state; asserts that
    /// `shard` is a member of the set.
    [[nodiscard]] PolicyCac& point(std::size_t shard) const;

    /// Validates `stamp` against the locked shard's live version
    /// counters: true iff no verdict-relevant queue of the stamped
    /// point changed since the stamp was taken.  Asserts membership.
    [[nodiscard]] bool stamp_current(const CheckStamp& stamp) const;

    /// The same validation over a *widened* invalidation cone:
    /// priorities [min(floor, stamp.priority), P) of the stamped
    /// out-port must be unchanged.  renegotiate_path() uses this with
    /// floor = the connection's old priority, so the stamps witness the
    /// union of the old and the new descriptor's dependency cones.
    [[nodiscard]] bool stamp_current(const CheckStamp& stamp,
                                     Priority floor) const;

    /// Commit epilogue for a locked shard that was mutated: advance the
    /// dirty queues' version stamps, re-prime, and republish the
    /// affected snapshots.  Asserts membership.
    void publish_epoch(std::size_t shard) const;

   private:
    ConcurrentCac& owner_;
    std::vector<std::size_t> shards_;
  };

  /// One queueing point per config entry, built by `policy`; shard ids
  /// are indices into `configs`.  Every shard starts fully primed, with
  /// all snapshots published (when the policy exports them).
  ConcurrentCac(const CacPolicy& policy,
                const std::vector<PointConfig>& configs);

  /// Bit-stream-policy convenience: one SwitchCac shard per config.
  explicit ConcurrentCac(const std::vector<SwitchCac::Config>& configs);

  ConcurrentCac(const ConcurrentCac&) = delete;
  ConcurrentCac& operator=(const ConcurrentCac&) = delete;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Whether `shard`'s policy exports snapshots (the optimistic read
  /// path is active for it).
  [[nodiscard]] bool snapshots_enabled(std::size_t shard) const;

  /// Live version counter of queue (out_port, priority) on `shard`
  /// (atomic read, no lock).  Advances on every commit that invalidates
  /// the queue; diagnostics and tests use it to observe epochs.
  [[nodiscard]] std::uint64_t point_version(std::size_t shard,
                                            std::size_t out_port,
                                            Priority priority) const;

  /// Advertised bound of queue (out_port, priority) on `shard`.
  /// Lock-free: advertised bounds are fixed at construction.
  [[nodiscard]] double advertised(std::size_t shard, std::size_t out_port,
                                  Priority priority) const;

  /// Policy-specific worst-case arrival of `traffic` on `shard` at
  /// accumulated CDV `cdv`.  Lock-free: prepare() is pure and touches
  /// only construction-time policy configuration.
  [[nodiscard]] std::any prepare(std::size_t shard,
                                 const TrafficDescriptor& traffic,
                                 double cdv) const;

  /// Trial admission.  Snapshot-publishing policies evaluate against
  /// the point's published snapshot with zero lock traffic when its
  /// version stamps validate; a stale snapshot, and every check of a
  /// policy without snapshots, runs under the shard's shared lock.
  /// When `stamp` is non-null it receives the version witness
  /// admit_path() can later validate.
  [[nodiscard]] HopVerdict check_hop(const HopSpec& hop,
                                     CheckStamp* stamp = nullptr) const;

  /// Stream-typed trial admission (bit-stream policy only; always
  /// evaluates under the shared lock).
  [[nodiscard]] CheckResult check(std::size_t shard, std::size_t in_port,
                                  std::size_t out_port, Priority priority,
                                  const Stream& arrival) const;

  /// Two-phase commit (bit-stream policy only): re-validates the check
  /// under the shard's exclusive lock and commits only when it (still)
  /// passes.
  CheckResult admit(std::size_t shard, ConnectionId id, std::size_t in_port,
                    std::size_t out_port, Priority priority,
                    const Stream& arrival,
                    double lease_expiry = SwitchCac::kPermanentLease);

  /// Multi-hop two-phase commit: exclusive locks in ascending shard
  /// order, every hop validated, then (optionally) `accept` consulted,
  /// then all hops committed — or nothing at all.  When `speculative`
  /// is non-empty it carries the optimistic per-hop verdicts (parallel
  /// to `hops`): a hop whose stamp still matches the live version
  /// counters reuses its verdict, every other hop is re-checked against
  /// the locked state, so the outcome is identical to re-checking all.
  PathResult admit_path(std::span<const HopSpec> hops, ConnectionId id,
                        double lease_expiry = SwitchCac::kPermanentLease,
                        PathAcceptance accept = nullptr,
                        void* accept_ctx = nullptr,
                        std::span<const SpeculativeHop> speculative = {});

  /// In-place renegotiation (MODIFY) of established connection `id`
  /// over its existing path: the same two-phase shape as admit_path(),
  /// but the commit is the DeltaTransaction of core/path_eval.h with
  /// release == acquire.  Every hop of `hops` carries the *new*
  /// descriptor's arrival; checks run against the combined old+new load
  /// (the old reservations stay committed throughout — make before
  /// break), speculative stamps are validated over the *union* of the
  /// old and new invalidation cones ([min(old_priority, new priority),
  /// P) per out-port), and on acceptance the new reservations commit
  /// under `provisional`, the old ones are released, and `provisional`
  /// is rebound onto `id` — all inside the exclusive lock set, so no
  /// concurrent check ever observes a mixed old/new path.  On rejection
  /// nothing changes.  Decision-identical to the serial
  /// ConnectionManager::renegotiate walk (distinct hops live on
  /// distinct shards).
  PathResult renegotiate_path(std::span<const HopSpec> hops,
                              ConnectionId id, ConnectionId provisional,
                              Priority old_priority,
                              double lease_expiry = SwitchCac::kPermanentLease,
                              PathAcceptance accept = nullptr,
                              void* accept_ctx = nullptr,
                              std::span<const SpeculativeHop> speculative = {});

  /// Immediate removal under the shard's exclusive lock.
  bool remove(std::size_t shard, ConnectionId id);

  /// Defers a removal into the shard's pending queue (cheap, does not
  /// take the shard's state lock); drain_removals() commits backlogs in
  /// one batched remove_many per shard.
  void queue_remove(std::size_t shard, ConnectionId id);
  std::size_t drain_removals();
  [[nodiscard]] std::size_t pending_removals() const;

  /// Lease sweep of one shard / all shards (exclusive lock per shard).
  std::vector<ConnectionId> reclaim(std::size_t shard, double now);
  std::vector<ConnectionId> reclaim_all(double now);

  bool renew_lease(std::size_t shard, ConnectionId id, double lease_expiry);
  bool make_permanent(std::size_t shard, ConnectionId id);
  [[nodiscard]] bool contains(std::size_t shard, ConnectionId id) const;

  /// Total committed connections across shards (hop reservations, not
  /// distinct network connections).
  [[nodiscard]] std::size_t connection_count() const;

  /// Diagnostics sweeps (shared lock per shard, consistent per shard but
  /// not across shards — quiesce for a global snapshot).
  [[nodiscard]] bool state_consistent() const;
  [[nodiscard]] bool bandwidth_conserved() const;
  [[nodiscard]] bool cache_coherent() const;

  /// Computed bound of one queue (shared lock; primed, so read-only).
  [[nodiscard]] std::optional<double> computed_bound(std::size_t shard,
                                                     std::size_t out_port,
                                                     Priority priority) const;

  /// Direct shard access for quiesced inspection (tests, benchmarks);
  /// bit-stream policy only.  NOT synchronized: the caller must
  /// guarantee no concurrent writers.
  [[nodiscard]] const SwitchCac& shard_state(std::size_t shard) const;

  /// Direct policy-state access, same quiescence caveat.
  [[nodiscard]] const PolicyCac& shard_point(std::size_t shard) const;

 private:
  /// One epoch's publication for one out-port: the immutable snapshot
  /// plus the per-priority version counters it was built from.  Readers
  /// pin it via shared_ptr; it is reclaimed when the last pin drops.
  struct Published {
    std::vector<std::uint64_t> versions;
    std::shared_ptr<const PointSnapshot> state;
  };

  /// Atomic publication cell for the current `Published` value.  A
  /// hand-rolled spin bit replaces `std::atomic<std::shared_ptr<..>>`
  /// deliberately: libstdc++'s `_Sp_atomic` releases its reader-side
  /// spinlock with a *relaxed* RMW, so there is no release edge from a
  /// reader's pointer read to the next writer's pointer write — a
  /// formal data race the C++ memory model does not excuse and that
  /// ThreadSanitizer reports.  Here both paths leave the critical
  /// section with a release store, so writer acquisition of the spin
  /// bit synchronizes with every prior reader.  The section is a
  /// refcount bump + pointer copy (a few ns); the displaced
  /// publication is released outside it.
  class PublishedCell {
   public:
    [[nodiscard]] std::shared_ptr<const Published> load() const {
      spin_acquire();
      std::shared_ptr<const Published> copy = value_;
      busy_.store(0, std::memory_order_release);
      return copy;
    }

    void store(std::shared_ptr<const Published> next) {
      spin_acquire();
      value_.swap(next);
      busy_.store(0, std::memory_order_release);
    }

   private:
    void spin_acquire() const {
      while (busy_.exchange(1, std::memory_order_acquire) != 0) {
      }
    }

    mutable std::atomic<std::uint8_t> busy_{0};
    std::shared_ptr<const Published> value_;  // guarded by busy_
  };

  struct Shard {
    Shard(std::unique_ptr<PolicyCac> point, std::size_t out_ports_,
          std::size_t priorities_, bool snapshots)
        : cac(std::move(point)),
          out_ports(out_ports_),
          priorities(priorities_),
          snapshots_enabled(snapshots),
          point_versions(std::make_unique<std::atomic<std::uint64_t>[]>(
              out_ports_ * priorities_)),
          slots(snapshots ? out_ports_ : 0) {}
    mutable SharedMutex mutex;
    // The pointer is set once at construction; the *pointee* (the
    // shard's whole admission state) is what the lock guards.
    std::unique_ptr<PolicyCac> cac RTCAC_PT_GUARDED_BY(mutex);
    // Deferred teardowns; guarded by its own small mutex so producers
    // never contend with in-flight checks on the state lock.  Never
    // held while acquiring `mutex`, so it stays outside the shard
    // lock-order audit.
    Mutex pending_mutex;
    std::vector<ConnectionId> pending_removals
        RTCAC_GUARDED_BY(pending_mutex);
    // Point geometry, frozen at construction; every queue of the shard
    // has key out_port * priorities + priority.
    // rtcac-lint: allow(guarded-by) — immutable after construction.
    const std::size_t out_ports;
    // rtcac-lint: allow(guarded-by) — immutable after construction.
    const std::size_t priorities;
    // rtcac-lint: allow(guarded-by) — immutable after construction.
    const bool snapshots_enabled;
    // Per-queue version counters (lock-free reads; advanced only under
    // the exclusive lock).  A queue's counter moves exactly when a
    // commit invalidated its derived state.
    const std::unique_ptr<std::atomic<std::uint64_t>[]> point_versions;
    // One publication cell per out-port (empty when the policy exports
    // no snapshots), stored only under the exclusive lock.  Readers
    // synchronize through each cell's spin bit, never through the shard
    // lock.
    // rtcac-lint: allow(guarded-by) — each cell is its own
    // synchronization primitive; the vector itself is sized at
    // construction and never reallocated.
    std::vector<PublishedCell> slots;
  };

  [[nodiscard]] Shard& shard_at(std::size_t shard) const;
  /// The shard's SwitchCac; throws unless it runs the bit-stream
  /// policy.  Read form for the shared-lock check path, mutable form
  /// for the exclusive-lock commit path (admit).
  [[nodiscard]] const SwitchCac& bitstream_at(const Shard& s) const
      RTCAC_REQUIRES_SHARED(s.mutex);
  [[nodiscard]] SwitchCac& bitstream_mut(Shard& s) RTCAC_REQUIRES(s.mutex);

  /// Unsynchronized access to policy surface that is immutable after
  /// construction — advertised() reads bounds fixed by the point's
  /// config, prepare() is pure (path_eval.h contract).  Justified
  /// escape: no lock could add anything; the members involved are
  /// never written after the shard is built, and the mutable caches
  /// stay untouched on these virtuals for every policy.
  [[nodiscard]] static const PolicyCac& point_const(const Shard& s)
      RTCAC_NO_THREAD_SAFETY_ANALYSIS {
    return *s.cac;
  }

  /// True iff `pub`'s stamps match the live counters for every queue
  /// the verdict at `priority` depends on (priorities [priority, P) of
  /// the out-port — a mutation at priority r invalidates all q >= r,
  /// so these stamps witness the whole dependency cone).
  [[nodiscard]] static bool snapshot_current(const Shard& s,
                                             const Published& pub,
                                             std::size_t out_port,
                                             Priority priority);

  /// stamp_current over a caller-provided stamp vector (same
  /// dependency-cone rule); used for validate-on-commit.  The floor
  /// form widens the cone to [min(floor, stamp.priority), P) —
  /// renegotiation must witness the old descriptor's cone too.
  [[nodiscard]] static bool stamp_matches(const Shard& s,
                                          const CheckStamp& stamp);
  [[nodiscard]] static bool stamp_matches(const Shard& s,
                                          const CheckStamp& stamp,
                                          Priority floor);

  /// Rebuilds and publishes out-port `out_port`'s snapshot from the
  /// current (primed) state, structurally sharing every priority whose
  /// version did not move.  The exclusive lock freezes the version
  /// counters, so the stamps embedded in the publication are exact.
  /// No-op when the previous publication is already current.
  static void rebuild_published_locked(Shard& s, std::size_t out_port)
      RTCAC_REQUIRES(s.mutex);

  /// Commit epilogue, under the exclusive lock: read the policy's
  /// dirty-queue set (before prime() — priming clears it), re-prime,
  /// advance the dirty queues' version counters, and republish the
  /// affected out-ports' snapshots.
  static void commit_epoch_locked(Shard& s) RTCAC_REQUIRES(s.mutex);

  // unique_ptr: shared_mutex is neither movable nor copyable, and shard
  // addresses must stay stable while locks are held.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace rtcac
