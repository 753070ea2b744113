// rtcac/net/admission_engine.h
//
// Parallel network-level admission control: the thread-safe counterpart
// of ConnectionManager (docs/PERFORMANCE.md, "Parallel admission").
//
// AdmissionEngine shards the network's CAC state per switch inside a
// ConcurrentCac and exposes the same setup/teardown/reclaim vocabulary
// ConnectionManager does, with the same decision semantics:
//
//   * setup() first checks every queueing point speculatively, in hop
//     order on the calling thread, stopping at the first rejecting hop
//     — lock-free against the shards' published snapshots for policies
//     that export them, under shared shard locks otherwise — and only
//     then commits through ConcurrentCac::admit_path, which validates
//     every hop under exclusive locks taken in canonical (ascending
//     shard id) order.  Each speculative check carries a version stamp
//     (ConcurrentCac::CheckStamp); a hop whose point saw no commit in
//     between reuses its speculative verdict, every other hop is
//     re-checked, so a stale speculative check can never over-admit;
//     the worst a race can do is reject a connection that a different
//     interleaving would have admitted, exactly as two racing SETUP
//     messages would in the distributed protocol.
//
//   * check() is the commit-free variant: the full admission decision
//     (hop bounds + end-to-end deadline) with no state change.
//
//   * teardown_deferred()/drain() batch teardown commits: the record is
//     retired immediately but the per-switch removals queue up and one
//     drain applies each shard's backlog as a single batched
//     remove_many (PR 3's rebuild-once machinery).
//
//   * the admission policy is pluggable (core/path_eval.h CacPolicy):
//     the same sharded two-phase machinery runs the paper's bit-stream
//     check, peak allocation, or the max-rate baseline, because hop
//     arrivals are policy-erased (prepare() once per hop, reused by the
//     speculative check and the exclusive-lock re-check + commit).
//
//   * replay() executes a recorded operation trace on N threads with
//     decisions *identical* to a serial replay: per-shard ticket
//     counters hold every operation back until exactly the trace-order
//     prefix of conflicting operations has finished — reads on a shard
//     wait for all earlier writes to that shard, writes additionally
//     wait for all earlier reads — so checks against the same switch
//     still run concurrently, but every decision is made against the
//     exact state the serial execution would have seen.  This is the
//     oracle gate bench/parallel_admission_bench.cpp enforces.
//
// Reason strings, rejection points and deadline semantics mirror
// ConnectionManager::setup exactly (same messages, same first-rejecting
// hop), so a serial ConnectionManager replay of the same trace is a
// bit-for-bit decision oracle.  Connection *ids* are the one permitted
// difference: the engine burns an id on a rejected setup where the
// serial manager does not; no decision depends on id values.
//
// The record map is guarded by an annotated Mutex
// (util/thread_annotations.h) and the whole locking surface is
// machine-checked by clang's -Wthread-safety under the `tsa` preset
// (docs/STATIC_ANALYSIS.md).
//
// Concurrency primitives are confined to this module, to
// util/thread_annotations.h and core/concurrent_cac.* by the
// `concurrency-state` lint rule (tools/rtcac_lint.py).

#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/concurrent_cac.h"
#include "net/connection_manager.h"
#include "net/topology.h"

namespace rtcac {

class AdmissionEngine {
 public:
  using Params = ConnectionManager::Params;
  using SetupResult = ConnectionManager::SetupResult;
  using ConnectionRecord = ConnectionManager::ConnectionRecord;
  using ReclaimResult = ConnectionManager::ReclaimResult;

  /// The paper's bit-stream policy.  The engine is thread-safe: any
  /// number of caller threads may invoke setup/check/teardown
  /// concurrently.
  AdmissionEngine(const Topology& topology, const Params& params);
  /// Explicit admission policy (stateless factory, used only during
  /// construction).
  AdmissionEngine(const Topology& topology, const Params& params,
                  const CacPolicy& policy);

  AdmissionEngine(const AdmissionEngine&) = delete;
  AdmissionEngine& operator=(const AdmissionEngine&) = delete;

  /// Admits (or rejects) a connection over `route`; decision semantics,
  /// reasons and rollback behavior match ConnectionManager::setup.
  /// `lease_expiry` marks the reservations provisional until then
  /// (default: permanent, like the serial manager).
  SetupResult setup(const QosRequest& request, const Route& route,
                    double lease_expiry = SwitchCac::kPermanentLease);

  /// The full admission decision without committing anything.
  [[nodiscard]] SetupResult check(const QosRequest& request,
                                  const Route& route) const;

  /// In-place renegotiation (MODIFY) of established connection `id` to
  /// `new_request` over its current route: speculative checks of the
  /// new descriptor against the combined old+new load (the old
  /// reservations stay committed), then
  /// ConcurrentCac::renegotiate_path validates the stamps over the
  /// union of the old and new invalidation cones and performs the
  /// DeltaTransaction swap under the exclusive lock set.  Decision
  /// semantics match ConnectionManager::renegotiate; an unknown id is
  /// reported as a rejection (not a throw — records may be retired by
  /// concurrent teardowns).  On success the record keeps its id and
  /// carries the new descriptor.
  SetupResult renegotiate(ConnectionId id, const QosRequest& new_request,
                          double lease_expiry = SwitchCac::kPermanentLease);

  /// Immediate release of every hop reservation.  False for unknown ids.
  bool teardown(ConnectionId id);

  /// Retires the connection record now but defers the per-switch
  /// removals into the shards' pending queues; false for unknown ids.
  bool teardown_deferred(ConnectionId id);

  /// Applies all deferred removals, one batched remove_many per shard;
  /// returns the number of hop reservations released.
  std::size_t drain();

  [[nodiscard]] std::size_t pending_removals() const {
    return cac_.pending_removals();
  }

  /// Lease sweep across every shard; reclaimed ids lose their record.
  ReclaimResult reclaim(double now);

  [[nodiscard]] std::size_t connection_count() const;

  /// Queueing points / per-hop arrival stream — identical to the
  /// ConnectionManager definitions (advertised bounds are fixed, so
  /// these never depend on admission state).
  [[nodiscard]] std::vector<HopRef> queueing_points(const Route& route) const;
  [[nodiscard]] BitStream arrival_at_hop(const TrafficDescriptor& traffic,
                                         std::span<const HopRef> hops,
                                         std::size_t hop_index,
                                         Priority priority) const;

  /// Shard id of a switch node; throws for nodes without CAC state.
  [[nodiscard]] std::size_t shard_of(NodeId node) const;

  /// The sharded core (diagnostics sweeps, tests).
  [[nodiscard]] const ConcurrentCac& core() const noexcept { return cac_; }

  [[nodiscard]] bool state_consistent() const {
    return cac_.state_consistent();
  }
  [[nodiscard]] bool bandwidth_conserved() const {
    return cac_.bandwidth_conserved();
  }
  [[nodiscard]] bool cache_coherent() const { return cac_.cache_coherent(); }

  // --- deterministic parallel trace replay ------------------------------

  struct TraceOp {
    enum class Kind {
      kCheck,             ///< commit-free admission decision
      kSetup,             ///< admit + commit
      kTeardown,          ///< immediate release of an earlier setup
      kTeardownDeferred,  ///< retire record, queue removals
      kDrain,             ///< apply all deferred removals
      kModify,            ///< in-place renegotiation of an earlier setup
    };
    static constexpr std::size_t kNoTarget = static_cast<std::size_t>(-1);

    Kind kind = Kind::kCheck;
    QosRequest request;  ///< kCheck/kSetup; kModify: the NEW descriptor
    /// kCheck/kSetup: the route to admit.  kTeardown/kTeardownDeferred/
    /// kModify with an explicit `id`: the route of that established
    /// connection (needed to schedule the op onto its shards).
    Route route;
    /// kTeardown/kTeardownDeferred/kModify: index of the kSetup op
    /// whose connection to release or renegotiate (its route is taken
    /// from that op).
    std::size_t target = kNoTarget;
    /// Alternative to `target`: an id established before the trace ran.
    ConnectionId id = kInvalidConnection;
  };

  struct OpOutcome {
    bool accepted = false;
    std::string reason;  ///< setup reasons; empty otherwise
    RejectReason reject;  ///< canonical rejection for check/setup ops
  };

  /// Executes `trace` on `threads` workers (0 or 1 = serial) with the
  /// per-shard ticket schedule described above.  Returns one outcome
  /// per op, identical to what a serial execution would produce.
  std::vector<OpOutcome> replay(std::span<const TraceOp> trace,
                                std::size_t threads);

 private:
  struct PathPlan {
    std::vector<HopRef> hops;
    std::vector<ConcurrentCac::HopSpec> specs;
    double e2e_advertised = 0;
  };

  [[nodiscard]] PathPlan plan_path(const QosRequest& request,
                                   const Route& route) const;

  /// Speculative per-hop checks in hop order — against the shards'
  /// published snapshots when the policy exports them (lock-free), under
  /// shared locks otherwise.  Returns the index of the first rejecting
  /// hop (kNoTarget when all admit) and fills `results`; when `stamps`
  /// is non-null it receives the per-hop version witnesses admit_path
  /// validates at commit time (validate-on-commit: unchanged hops reuse
  /// their verdicts).  The checks stop at the first rejecting hop, and
  /// the entries after it stay default-constructed.
  std::size_t speculative_checks(
      const std::vector<ConcurrentCac::HopSpec>& specs,
      std::vector<HopVerdict>& results,
      std::vector<ConcurrentCac::CheckStamp>* stamps = nullptr) const;

  SetupResult do_setup(const QosRequest& request, const Route& route,
                       double lease_expiry);
  [[nodiscard]] OpOutcome run_trace_op(std::size_t index,
                                       std::span<const TraceOp> trace,
                                       std::span<ConnectionId> ids_by_op);

  // topology_/params_/evaluator_/shard_index_ are immutable after
  // construction; cac_ is internally synchronized (its own annotated
  // locks); next_id_ is atomic.  The guarded-by lint rule
  // requires each non-annotated member of a mutex-owning class to state
  // why, hence the inline allows.
  const Topology& topology_;  // rtcac-lint: allow(guarded-by)
  Params params_;  // rtcac-lint: allow(guarded-by)
  PathEvaluator evaluator_;  // rtcac-lint: allow(guarded-by)
  /// Per node; npos for terminals.
  std::vector<std::size_t> shard_index_;  // rtcac-lint: allow(guarded-by)
  ConcurrentCac cac_;  // rtcac-lint: allow(guarded-by)

  mutable Mutex records_mutex_;
  std::map<ConnectionId, ConnectionRecord> records_
      RTCAC_GUARDED_BY(records_mutex_);
  std::atomic<ConnectionId> next_id_{1};
};

}  // namespace rtcac
