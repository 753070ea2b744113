// rtcac/core/concurrent_cac.cpp — see concurrent_cac.h for the design.
//
// Lock discipline (machine-checked, docs/STATIC_ANALYSIS.md): every
// single-shard entry point pairs a LockOrderAudit::Scope with a
// SharedLock/ExclusiveLock RAII guard on that shard's mutex; the only
// multi-shard paths are admit_path and renegotiate_path, which go
// through the ShardLockSet scoped capability.  The snapshot fast path
// takes no shard lock at all — it synchronizes through each slot's
// publication cell and validates version stamps.  The
// RTCAC_NO_THREAD_SAFETY_ANALYSIS escapes in this file (ShardLockSet's
// constructor/destructor/point/both stamp_current overloads/
// publish_epoch) plus the two
// quiesced test accessors at the bottom and point_const in the header
// are the complete list the `tsa` preset tolerates — each is justified
// at its site.

#include "core/concurrent_cac.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/contract.h"
#include "util/lock_order.h"

namespace rtcac {

ConcurrentCac::ConcurrentCac(const CacPolicy& policy,
                             const std::vector<PointConfig>& configs) {
  shards_.reserve(configs.size());
  for (const PointConfig& config : configs) {
    // Prime before the point is published into a Shard: afterwards the
    // derived caches may only be touched under the shard's lock.
    std::unique_ptr<PolicyCac> point = policy.make_point(config);
    point->prime();
    // Probe once whether this policy exports snapshots; the answer is
    // frozen into the shard (its slots exist only when it does).
    bool snapshots = false;
    if (config.out_ports > 0 && config.priorities > 0) {
      std::vector<std::size_t> all(config.priorities);
      for (std::size_t p = 0; p < config.priorities; ++p) all[p] = p;
      snapshots = point->export_point_snapshot(0, nullptr, all) != nullptr;
    }
    shards_.push_back(std::make_unique<Shard>(
        std::move(point), config.out_ports, config.priorities, snapshots));
  }
  // Publish every point's initial snapshot so the very first checks
  // already run lock-free.  No other thread can reference the shards
  // yet; the locks are uncontended and keep the annotated discipline
  // uniform.
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    Shard& s = *shards_[shard];
    if (!s.snapshots_enabled) continue;
    const LockOrderAudit::Scope audit(shard);
    const ExclusiveLock lock(s.mutex);
    for (std::size_t out = 0; out < s.out_ports; ++out) {
      rebuild_published_locked(s, out);
    }
  }
}

namespace {
std::vector<PointConfig> to_point_configs(
    const std::vector<SwitchCac::Config>& configs) {
  std::vector<PointConfig> points;
  points.reserve(configs.size());
  for (const SwitchCac::Config& config : configs) {
    points.push_back(PointConfig{config.in_ports, config.out_ports,
                                 config.priorities, config.advertised_bound,
                                 config.coalesce_budget});
  }
  return points;
}
}  // namespace

ConcurrentCac::ConcurrentCac(const std::vector<SwitchCac::Config>& configs)
    : ConcurrentCac(BitstreamCacPolicy::instance(),
                    to_point_configs(configs)) {}

ConcurrentCac::Shard& ConcurrentCac::shard_at(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("ConcurrentCac: shard out of range");
  }
  return *shards_[shard];
}

const SwitchCac& ConcurrentCac::bitstream_at(const Shard& s) const {
  const SwitchCac* cac = s.cac->bitstream();
  RTCAC_REQUIRE(cac != nullptr,
                "ConcurrentCac: Stream-typed API requires the bit-stream "
                "policy");
  return *cac;
}

SwitchCac& ConcurrentCac::bitstream_mut(Shard& s) {
  SwitchCac* cac = s.cac->bitstream();
  RTCAC_REQUIRE(cac != nullptr,
                "ConcurrentCac: Stream-typed API requires the bit-stream "
                "policy");
  return *cac;
}

// --- snapshot machinery -----------------------------------------------------

bool ConcurrentCac::snapshot_current(const Shard& s, const Published& pub,
                                     std::size_t out_port,
                                     Priority priority) {
  if (pub.versions.size() != s.priorities) return false;
  // The verdict at `priority` depends only on queues [priority, P) of
  // this out-port: a mutation at priority r invalidates every queue
  // q >= r (the policy's dirty-queue contract), so a mutation at r <
  // priority that changed anything the check reads also moved these
  // stamps.
  for (std::size_t q = priority; q < s.priorities; ++q) {
    if (pub.versions[q] !=
        s.point_versions[out_port * s.priorities + q].load(
            std::memory_order_acquire)) {
      return false;
    }
  }
  return true;
}

bool ConcurrentCac::stamp_matches(const Shard& s, const CheckStamp& stamp) {
  return stamp_matches(s, stamp, stamp.priority);
}

bool ConcurrentCac::stamp_matches(const Shard& s, const CheckStamp& stamp,
                                  Priority floor) {
  if (stamp.versions.size() != s.priorities || stamp.out_port >= s.out_ports ||
      stamp.priority >= s.priorities) {
    return false;  // null or malformed stamp never validates
  }
  // The stamp holds every priority's counter, so a cone wider than the
  // one the check itself needed (floor < stamp.priority — the
  // renegotiation union cone) is validatable from the same witness.
  for (std::size_t q = std::min<std::size_t>(floor, stamp.priority);
       q < s.priorities; ++q) {
    if (stamp.versions[q] !=
        s.point_versions[stamp.out_port * s.priorities + q].load(
            std::memory_order_acquire)) {
      return false;
    }
  }
  return true;
}

void ConcurrentCac::rebuild_published_locked(Shard& s, std::size_t out_port) {
  PublishedCell& slot = s.slots[out_port];
  const std::shared_ptr<const Published> prev = slot.load();
  // The exclusive lock freezes the version counters, so this
  // publication's embedded stamps exactly describe the state being
  // exported.
  std::vector<std::uint64_t> versions(s.priorities);
  std::vector<std::size_t> stale;
  for (std::size_t p = 0; p < s.priorities; ++p) {
    versions[p] = s.point_versions[out_port * s.priorities + p].load(
        std::memory_order_acquire);
    if (prev == nullptr || prev->versions.size() != s.priorities ||
        prev->versions[p] != versions[p]) {
      stale.push_back(p);
    }
  }
  if (prev != nullptr && stale.empty()) return;  // already current
  std::shared_ptr<const PointSnapshot> state = s.cac->export_point_snapshot(
      out_port, prev != nullptr ? prev->state.get() : nullptr, stale);
  if (state == nullptr) return;  // policy declined: readers take the lock
  slot.store(std::make_shared<const Published>(
      Published{std::move(versions), std::move(state)}));
}

void ConcurrentCac::commit_epoch_locked(Shard& s) {
  // Dirty set first: prime() rebuilds the derived caches and clears the
  // policy's dirty bookkeeping in the same stroke.
  const std::optional<std::vector<std::size_t>> dirty = s.cac->dirty_queues();
  s.cac->prime();
  const std::size_t queues = s.out_ports * s.priorities;
  if (queues == 0) return;
  if (!dirty.has_value()) {
    // Policy cannot attribute the mutations: advance every queue.
    for (std::size_t key = 0; key < queues; ++key) {
      s.point_versions[key].fetch_add(1, std::memory_order_release);
    }
    if (!s.snapshots_enabled) return;
    for (std::size_t out = 0; out < s.out_ports; ++out) {
      rebuild_published_locked(s, out);
    }
    return;
  }
  for (const std::size_t key : *dirty) {
    RTCAC_ASSERT(key < queues, "ConcurrentCac: dirty queue key out of range");
    s.point_versions[key].fetch_add(1, std::memory_order_release);
  }
  if (!s.snapshots_enabled) return;
  // Republish only after every counter moved, so each publication's
  // stamps are final.  Keys of one out-port are adjacent, and a repeat
  // of an already-republished out-port would be a no-op anyway.
  std::size_t last = s.out_ports;
  for (const std::size_t key : *dirty) {
    const std::size_t out = key / s.priorities;
    if (out != last) rebuild_published_locked(s, out);
    last = out;
  }
}

// --- ShardLockSet: the canonical multi-shard acquisition --------------------

ConcurrentCac::ShardLockSet::ShardLockSet(ConcurrentCac& owner,
                                          std::span<const HopSpec> hops)
    // Justified escape: the locked set is a runtime value, so the
    // static analysis cannot name the capabilities being acquired.  The
    // discipline is enforced dynamically instead — the loop below
    // iterates the sorted distinct shard ids, and LockOrderAudit::push
    // asserts per-thread ascent *before* each blocking acquisition (so
    // an ordering bug fires as a ContractViolation, not a deadlock);
    // TSan's `concurrency` label covers the result.
    RTCAC_NO_THREAD_SAFETY_ANALYSIS
    : owner_(owner) {
  shards_.reserve(hops.size());
  for (const HopSpec& hop : hops) shards_.push_back(hop.shard);
  std::sort(shards_.begin(), shards_.end());
  shards_.erase(std::unique(shards_.begin(), shards_.end()), shards_.end());
  for (const std::size_t shard : shards_) {
    LockOrderAudit::push(shard);
    owner_.shard_at(shard).mutex.lock();
  }
}

ConcurrentCac::ShardLockSet::~ShardLockSet()
    // Justified escape: releases the same dynamic set, in LIFO order
    // (LockOrderAudit::pop asserts it).
    RTCAC_NO_THREAD_SAFETY_ANALYSIS {
  for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
    owner_.shard_at(*it).mutex.unlock();
    LockOrderAudit::pop(*it);
  }
}

PolicyCac& ConcurrentCac::ShardLockSet::point(std::size_t shard) const
    // Justified escape: guarded access on behalf of the dynamic lock
    // set.  Membership is asserted, so a shard id outside the locked
    // set cannot slip past the exclusion the set provides.
    RTCAC_NO_THREAD_SAFETY_ANALYSIS {
  RTCAC_ASSERT(std::binary_search(shards_.begin(), shards_.end(), shard),
               "ShardLockSet: shard not locked by this set");
  return *owner_.shard_at(shard).cac;
}

bool ConcurrentCac::ShardLockSet::stamp_current(const CheckStamp& stamp) const
    // Justified escape: compares atomic version counters on behalf of
    // the dynamic lock set.  Membership is asserted, so the exclusive
    // lock the set holds freezes the counters being compared — a match
    // proves the stamped point saw no commit since the stamp was taken.
    RTCAC_NO_THREAD_SAFETY_ANALYSIS {
  RTCAC_ASSERT(
      std::binary_search(shards_.begin(), shards_.end(), stamp.shard),
      "ShardLockSet: stamped shard not locked by this set");
  return stamp_matches(owner_.shard_at(stamp.shard), stamp);
}

bool ConcurrentCac::ShardLockSet::stamp_current(const CheckStamp& stamp,
                                                Priority floor) const
    // Justified escape: same argument as the plain overload, over the
    // widened cone [min(floor, stamp.priority), P) — a renegotiation
    // verdict also depends on the old descriptor's queues staying
    // unchanged, and the exclusive lock freezes those counters too.
    RTCAC_NO_THREAD_SAFETY_ANALYSIS {
  RTCAC_ASSERT(
      std::binary_search(shards_.begin(), shards_.end(), stamp.shard),
      "ShardLockSet: stamped shard not locked by this set");
  return stamp_matches(owner_.shard_at(stamp.shard), stamp, floor);
}

void ConcurrentCac::ShardLockSet::publish_epoch(std::size_t shard) const
    // Justified escape: commit epilogue on behalf of the dynamic lock
    // set; membership is asserted (same exclusion argument as point()).
    RTCAC_NO_THREAD_SAFETY_ANALYSIS {
  RTCAC_ASSERT(std::binary_search(shards_.begin(), shards_.end(), shard),
               "ShardLockSet: shard not locked by this set");
  owner_.commit_epoch_locked(owner_.shard_at(shard));
}

// --- single-shard operations ------------------------------------------------

bool ConcurrentCac::snapshots_enabled(std::size_t shard) const {
  return shard_at(shard).snapshots_enabled;
}

std::uint64_t ConcurrentCac::point_version(std::size_t shard,
                                           std::size_t out_port,
                                           Priority priority) const {
  const Shard& s = shard_at(shard);
  RTCAC_REQUIRE(out_port < s.out_ports && priority < s.priorities,
                "ConcurrentCac: queue out of range");
  return s.point_versions[out_port * s.priorities + priority].load(
      std::memory_order_acquire);
}

double ConcurrentCac::advertised(std::size_t shard, std::size_t out_port,
                                 Priority priority) const {
  return point_const(shard_at(shard)).advertised(out_port, priority);
}

std::any ConcurrentCac::prepare(std::size_t shard,
                                const TrafficDescriptor& traffic,
                                double cdv) const {
  return point_const(shard_at(shard)).prepare(traffic, cdv);
}

HopVerdict ConcurrentCac::check_hop(const HopSpec& hop,
                                    CheckStamp* stamp) const {
  Shard& s = shard_at(hop.shard);
  if (s.snapshots_enabled && hop.out_port < s.out_ports &&
      hop.priority < s.priorities) {
    const std::shared_ptr<const Published> pub = s.slots[hop.out_port].load();
    if (pub != nullptr &&
        snapshot_current(s, *pub, hop.out_port, hop.priority)) {
      if (stamp != nullptr) {
        *stamp = CheckStamp{hop.shard, hop.out_port, hop.priority,
                            pub->versions};
      }
      // Zero lock traffic: the pinned snapshot is immutable, and its
      // validated stamps prove it equals the live state.
      return pub->state->check(hop.in_port, hop.priority, hop.arrival);
    }
    // Stale: a writer is mid-commit on this shard, or the policy
    // declined the export.  The shared lock below settles it.
  }
  const LockOrderAudit::Scope audit(hop.shard);
  const SharedLock lock(s.mutex);
  if (stamp != nullptr && hop.out_port < s.out_ports &&
      hop.priority < s.priorities) {
    // The shared lock freezes the counters, so this stamp is as exact
    // as a snapshot's embedded one.
    std::vector<std::uint64_t> versions(s.priorities);
    for (std::size_t p = 0; p < s.priorities; ++p) {
      versions[p] = s.point_versions[hop.out_port * s.priorities + p].load(
          std::memory_order_acquire);
    }
    *stamp = CheckStamp{hop.shard, hop.out_port, hop.priority,
                        std::move(versions)};
  }
  return s.cac->check(hop.in_port, hop.out_port, hop.priority, hop.arrival);
}

ConcurrentCac::CheckResult ConcurrentCac::check(std::size_t shard,
                                                std::size_t in_port,
                                                std::size_t out_port,
                                                Priority priority,
                                                const Stream& arrival) const {
  Shard& s = shard_at(shard);
  const LockOrderAudit::Scope audit(shard);
  const SharedLock lock(s.mutex);
  return bitstream_at(s).check(in_port, out_port, priority, arrival);
}

ConcurrentCac::CheckResult ConcurrentCac::admit(
    std::size_t shard, ConnectionId id, std::size_t in_port,
    std::size_t out_port, Priority priority, const Stream& arrival,
    double lease_expiry) {
  Shard& s = shard_at(shard);
  const LockOrderAudit::Scope audit(shard);
  const ExclusiveLock lock(s.mutex);
  SwitchCac& cac = bitstream_mut(s);
  // Authoritative re-validation: any speculative check the caller ran
  // may be stale by now.
  CheckResult result = cac.check(in_port, out_port, priority, arrival);
  if (result.admitted) {
    cac.add(id, in_port, out_port, priority, arrival, lease_expiry);
    commit_epoch_locked(s);
  }
  return result;
}

ConcurrentCac::PathResult ConcurrentCac::admit_path(
    std::span<const HopSpec> hops, ConnectionId id, double lease_expiry,
    PathAcceptance accept, void* accept_ctx,
    std::span<const SpeculativeHop> speculative) {
  PathResult result;
  if (hops.empty()) return result;

  // Canonical multi-shard acquisition: ascending shard id, each shard
  // locked once even if the path crosses it twice.
  const ShardLockSet locks(*this, hops);

  // Check-all-then-commit-all, with validate-on-commit: a hop whose
  // speculative stamp still matches the live version counters (frozen
  // by the exclusive locks) reuses its optimistic verdict — the point
  // provably saw no commit since the check.  Every other hop is
  // re-checked against the locked state, so the outcome is identical
  // to re-checking all of them, and a stale speculative check can
  // never over-admit.  With every involved shard exclusively locked
  // this is decision-identical to the serial hop-by-hop walk: the hops
  // reserve on distinct switches, so no hop's check can see another
  // hop's commit of the same connection.
  result.hops.reserve(hops.size());
  for (std::size_t h = 0; h < hops.size(); ++h) {
    const HopSpec& hop = hops[h];
    const SpeculativeHop* spec =
        h < speculative.size() ? &speculative[h] : nullptr;
    if (spec != nullptr && spec->stamp.shard == hop.shard &&
        spec->stamp.out_port == hop.out_port &&
        spec->stamp.priority == hop.priority &&
        locks.stamp_current(spec->stamp)) {
      result.hops.push_back(spec->verdict);
      ++result.hops_reused;
    } else {
      result.hops.push_back(locks.point(hop.shard).check(
          hop.in_port, hop.out_port, hop.priority, hop.arrival));
      ++result.hops_revalidated;
    }
    if (!result.hops.back().admitted) {
      result.rejecting_hop = h;
      return result;
    }
  }
  if (accept != nullptr && !accept(result.hops, accept_ctx)) {
    return result;
  }
  for (const HopSpec& hop : hops) {
    locks.point(hop.shard).add(id, hop.in_port, hop.out_port, hop.priority,
                               hop.arrival, lease_expiry);
  }
  for (const std::size_t shard : locks.shards()) {
    locks.publish_epoch(shard);
  }
  result.admitted = true;
  return result;
}

ConcurrentCac::PathResult ConcurrentCac::renegotiate_path(
    std::span<const HopSpec> hops, ConnectionId id, ConnectionId provisional,
    Priority old_priority, double lease_expiry, PathAcceptance accept,
    void* accept_ctx, std::span<const SpeculativeHop> speculative) {
  PathResult result;
  if (hops.empty()) return result;
  RTCAC_REQUIRE(provisional != kInvalidConnection && provisional != id,
                "renegotiate_path: provisional id must be fresh and distinct");

  const ShardLockSet locks(*this, hops);

  // Check-all against the *combined* old+new load: the old descriptor's
  // reservations stay committed while every new-descriptor hop is
  // validated, so each check is exactly the make-before-break combined
  // check the serial renegotiate walk performs.  Stamp reuse validates
  // the union cone [min(old_priority, new priority), P): committing the
  // swap releases the old reservation, whose queues (>= old_priority)
  // the verdict therefore also depends on staying unchanged.
  result.hops.reserve(hops.size());
  for (std::size_t h = 0; h < hops.size(); ++h) {
    const HopSpec& hop = hops[h];
    const SpeculativeHop* spec =
        h < speculative.size() ? &speculative[h] : nullptr;
    if (spec != nullptr && spec->stamp.shard == hop.shard &&
        spec->stamp.out_port == hop.out_port &&
        spec->stamp.priority == hop.priority &&
        locks.stamp_current(spec->stamp, old_priority)) {
      result.hops.push_back(spec->verdict);
      ++result.hops_reused;
    } else {
      result.hops.push_back(locks.point(hop.shard).check(
          hop.in_port, hop.out_port, hop.priority, hop.arrival));
      ++result.hops_revalidated;
    }
    if (!result.hops.back().admitted) {
      result.rejecting_hop = h;
      return result;
    }
  }
  if (accept != nullptr && !accept(result.hops, accept_ctx)) {
    return result;
  }

  // DeltaTransaction commit with release == acquire, driven through the
  // single path_eval core over the locked points: commit the new
  // descriptor under `provisional`, release the old reservations, rebind
  // `provisional` onto `id`.  The whole sequence runs inside the
  // exclusive lock set, so no concurrent check ever observes a mixed
  // old/new path, and the per-cell mutation order matches the serial
  // walk's exactly.
  const Priority priority = hops.front().priority;
  std::vector<PathEvaluator::Hop> views;
  std::vector<std::any> arrivals;
  views.reserve(hops.size());
  arrivals.reserve(hops.size());
  for (const HopSpec& hop : hops) {
    RTCAC_ASSERT(hop.priority == priority,
                 "renegotiate_path: hops must share the request's priority");
    PathEvaluator::Hop view;
    view.cac = &locks.point(hop.shard);
    view.in_port = hop.in_port;
    view.out_port = hop.out_port;
    views.push_back(view);
    arrivals.push_back(hop.arrival);
  }
  PathEvaluator::commit_delta_hops(views, views, id, provisional, priority,
                                   arrivals, lease_expiry);
  for (const std::size_t shard : locks.shards()) {
    locks.publish_epoch(shard);
  }
  result.admitted = true;
  return result;
}

bool ConcurrentCac::remove(std::size_t shard, ConnectionId id) {
  Shard& s = shard_at(shard);
  const LockOrderAudit::Scope audit(shard);
  const ExclusiveLock lock(s.mutex);
  const bool removed = s.cac->remove(id);
  if (removed) commit_epoch_locked(s);
  return removed;
}

void ConcurrentCac::queue_remove(std::size_t shard, ConnectionId id) {
  Shard& s = shard_at(shard);
  const MutexLock lock(s.pending_mutex);
  s.pending_removals.push_back(id);
}

std::size_t ConcurrentCac::drain_removals() {
  std::size_t removed = 0;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    Shard& s = *shards_[shard];
    std::vector<ConnectionId> batch;
    {
      const MutexLock lock(s.pending_mutex);
      batch.swap(s.pending_removals);
    }
    if (batch.empty()) continue;
    const LockOrderAudit::Scope audit(shard);
    const ExclusiveLock lock(s.mutex);
    removed += s.cac->remove_many(batch);
    commit_epoch_locked(s);
  }
  return removed;
}

std::size_t ConcurrentCac::pending_removals() const {
  std::size_t pending = 0;
  for (const auto& shard : shards_) {
    Shard& s = *shard;
    const MutexLock lock(s.pending_mutex);
    pending += s.pending_removals.size();
  }
  return pending;
}

std::vector<ConnectionId> ConcurrentCac::reclaim(std::size_t shard,
                                                 double now) {
  Shard& s = shard_at(shard);
  const LockOrderAudit::Scope audit(shard);
  const ExclusiveLock lock(s.mutex);
  std::vector<ConnectionId> reclaimed = s.cac->reclaim(now);
  if (!reclaimed.empty()) commit_epoch_locked(s);
  return reclaimed;
}

std::vector<ConnectionId> ConcurrentCac::reclaim_all(double now) {
  std::vector<ConnectionId> reclaimed;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    std::vector<ConnectionId> part = reclaim(shard, now);
    reclaimed.insert(reclaimed.end(), part.begin(), part.end());
  }
  return reclaimed;
}

bool ConcurrentCac::renew_lease(std::size_t shard, ConnectionId id,
                                double lease_expiry) {
  Shard& s = shard_at(shard);
  const LockOrderAudit::Scope audit(shard);
  const ExclusiveLock lock(s.mutex);
  // No epoch: lease metadata feeds no admission aggregate, so the
  // published snapshots stay exact.
  return s.cac->renew_lease(id, lease_expiry);
}

bool ConcurrentCac::make_permanent(std::size_t shard, ConnectionId id) {
  Shard& s = shard_at(shard);
  const LockOrderAudit::Scope audit(shard);
  const ExclusiveLock lock(s.mutex);
  return s.cac->make_permanent(id);
}

bool ConcurrentCac::contains(std::size_t shard, ConnectionId id) const {
  Shard& s = shard_at(shard);
  const LockOrderAudit::Scope audit(shard);
  const SharedLock lock(s.mutex);
  return s.cac->contains(id);
}

std::size_t ConcurrentCac::connection_count() const {
  std::size_t count = 0;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    Shard& s = *shards_[shard];
    const LockOrderAudit::Scope audit(shard);
    const SharedLock lock(s.mutex);
    count += s.cac->connection_count();
  }
  return count;
}

bool ConcurrentCac::state_consistent() const {
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    Shard& s = *shards_[shard];
    const LockOrderAudit::Scope audit(shard);
    const SharedLock lock(s.mutex);
    if (!s.cac->state_consistent()) return false;
  }
  return true;
}

bool ConcurrentCac::bandwidth_conserved() const {
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    Shard& s = *shards_[shard];
    const LockOrderAudit::Scope audit(shard);
    const SharedLock lock(s.mutex);
    if (!s.cac->bandwidth_conserved()) return false;
  }
  return true;
}

bool ConcurrentCac::cache_coherent() const {
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    Shard& s = *shards_[shard];
    const LockOrderAudit::Scope audit(shard);
    const SharedLock lock(s.mutex);
    if (!s.cac->cache_coherent()) return false;
  }
  return true;
}

std::optional<double> ConcurrentCac::computed_bound(std::size_t shard,
                                                    std::size_t out_port,
                                                    Priority priority) const {
  Shard& s = shard_at(shard);
  const LockOrderAudit::Scope audit(shard);
  const SharedLock lock(s.mutex);
  return s.cac->computed_bound(out_port, priority);
}

const SwitchCac& ConcurrentCac::shard_state(std::size_t shard) const
    // Justified escape: documented quiesced-inspection API (tests,
    // benchmarks) — the caller guarantees no concurrent writers, which
    // no lock acquisition here could express or improve on.
    RTCAC_NO_THREAD_SAFETY_ANALYSIS {
  Shard& s = shard_at(shard);
  const SwitchCac* cac = s.cac->bitstream();
  RTCAC_REQUIRE(cac != nullptr,
                "ConcurrentCac::shard_state requires the bit-stream policy");
  return *cac;
}

const PolicyCac& ConcurrentCac::shard_point(std::size_t shard) const
    // Justified escape: same quiesced-inspection contract as
    // shard_state above.
    RTCAC_NO_THREAD_SAFETY_ANALYSIS {
  return *shard_at(shard).cac;
}

}  // namespace rtcac
