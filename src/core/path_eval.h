// rtcac/core/path_eval.h
//
// The single source of truth for the paper's network-level admission walk
// (Sections 4.1 and 4.3): walk the route hop by hop, distort the source
// stream by the CDV accumulated over the upstream hops' *advertised*
// bounds (fixed, so no iteration is ever needed — the paper's key
// simplification), ask each queueing point's admission policy, and split
// the end-to-end deadline at the destination under the configured
// GuaranteeMode.
//
// Three engines drive this walk — ConnectionManager (serial),
// SignalingEngine (distributed SETUP/REJECT), AdmissionEngine (parallel
// sharded) — and they must produce bit-identical decision streams.  Every
// piece of admission arithmetic they share therefore lives here, exactly
// once:
//
//   * accumulated CDV under CdvPolicy (hard sum / soft sqrt-of-squares),
//   * per-hop worst-case arrival construction (Alg. 3.1 distortion),
//   * the per-hop admission query,
//   * the promised-bound-vs-deadline comparison (GuaranteeMode), and
//   * the canonical rejection reasons, machine-readable as
//     RejectReason{hop, code, detail} and human-readable as the exact
//     strings the engines have always emitted.
//
// The per-hop admission policy is pluggable: CacPolicy is a factory for
// per-queueing-point PolicyCac state.  The built-in `bitstream` policy
// wraps SwitchCac (the paper's Alg. 4.1 check); `peak` and `max_rate`
// baselines adapt src/baseline/ behind the same contract (see
// baseline/policies.h), so every engine can run every policy and be
// compared on identical semantics.
//
// PolicyCac's arrival type is erased behind std::any: prepare() builds
// the policy-specific worst-case arrival for a hop once (outside any
// lock), and check()/add() reuse it — the two-phase engines never pay
// the Alg. 3.1 distortion twice (docs/PERFORMANCE.md).
//
// The admission-walk lint rule (tools/rtcac_lint.py) keeps it this way:
// accumulate_cdv calls and deadline-split comparisons outside this layer
// are build failures.

#pragma once

#include <any>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cdv.h"
#include "core/connection.h"
#include "core/switch_cac.h"

namespace rtcac {

/// What bound the network promises against the requested deadline D
/// (Section 4.3): the sum of the *advertised* per-queue bounds Dmax (what
/// CDV accumulation already charged for), or the tighter sum of the
/// *computed* bounds D' at setup time.
enum class GuaranteeMode {
  kAdvertised,
  kComputed,
};

/// Machine-readable classification of an admission failure.  The values
/// are shared by every engine: equal traces produce equal codes whether
/// the walk ran serially, sharded, or over the signaling plane.
enum class RejectCode {
  kNone,       ///< not rejected
  kPriority,   ///< requested priority outside the configured range
  kAdmission,  ///< a queueing point's CAC said no
  kDeadline,   ///< all hops admitted, but the promised bound exceeds D
  kTimeout,    ///< signaling retransmission budget exhausted
  kNoRoute,    ///< no route exists around the failed set (rerouting)
};

[[nodiscard]] const char* to_string(RejectCode code) noexcept;

/// Canonical admission-failure record: where the walk stopped, why, and
/// the exact human-readable detail the engines have always reported.
struct RejectReason {
  /// hop value when the failure is not attributable to a hop (e.g. a
  /// priority rejection before the walk starts, or a timeout).
  static constexpr std::size_t kNoHop = static_cast<std::size_t>(-1);

  std::size_t hop = kNoHop;  ///< rejecting hop; hop_count for kDeadline
  RejectCode code = RejectCode::kNone;
  std::string detail;  ///< canonical reason text; empty iff kNone

  [[nodiscard]] bool rejected() const noexcept {
    return code != RejectCode::kNone;
  }

  /// Bit-identical equality — what the equivalence and replay-determinism
  /// suites compare across engines and runs.
  friend bool operator==(const RejectReason&, const RejectReason&) = default;
};

/// Verdict of one queueing point's policy check for one candidate.
struct HopVerdict {
  bool admitted = false;
  /// Computed worst-case bound at this hop including the candidate (cell
  /// times); policies that compute no bound report 0.
  double bound = 0;
  /// Advertised (fixed) bound of this hop's outgoing queue.
  double advertised = 0;
  /// Policy-phrased rejection detail; empty when admitted.
  std::string detail;
};

/// Shape of one queueing point, policy-independent.
struct PointConfig {
  std::size_t in_ports = 0;
  std::size_t out_ports = 0;
  std::size_t priorities = 1;
  double advertised_bound = 32;
  /// Per-aggregate segment cap (0 = exact).  Policies that keep
  /// per-cell aggregates (the bitstream policy's merge trees) bound
  /// every aggregate to this many segments, trading admit-side
  /// conservatism for population-independent admission cost; policies
  /// without aggregates ignore it.
  std::size_t coalesce_budget = 0;
};

/// Immutable, policy-erased snapshot of ONE out-port's admission state,
/// exported by PolicyCac::export_point_snapshot and published by the
/// concurrency layer (core/concurrent_cac.h) for lock-free optimistic
/// checks.  The contract: check() against a snapshot must be decision-
/// and string-identical to PolicyCac::check against the exact state the
/// snapshot was exported from.  Implementations hold plain immutable
/// data; thread safety is by immutability, reclamation is shared_ptr
/// reference counting (a pinned snapshot outlives any number of newer
/// publications).
class PointSnapshot {
 public:
  PointSnapshot() = default;
  PointSnapshot(const PointSnapshot&) = delete;
  PointSnapshot& operator=(const PointSnapshot&) = delete;
  virtual ~PointSnapshot() = default;

  /// Trial admission against the frozen state; same verdict the live
  /// check would have produced at export time.
  [[nodiscard]] virtual HopVerdict check(std::size_t in_port,
                                         Priority priority,
                                         const std::any& arrival) const = 0;
};

/// Admission state of ONE queueing point under some policy.  Not
/// thread-safe; callers (ConcurrentCac shards) provide locking.
///
/// The arrival argument threaded through check()/add() is whatever
/// prepare() returned for this point — policies define their own
/// representation (BitStream for the paper's check, BurstyEnvelope for
/// max_rate, a peak rate for peak allocation).
class PolicyCac {
 public:
  PolicyCac() = default;
  PolicyCac(const PolicyCac&) = delete;
  PolicyCac& operator=(const PolicyCac&) = delete;
  virtual ~PolicyCac() = default;

  /// Advertised (fixed) bound of outgoing queue (out_port, priority).
  [[nodiscard]] virtual double advertised(std::size_t out_port,
                                          Priority priority) const = 0;

  /// Policy-specific worst-case arrival of `traffic` at a hop reached
  /// with accumulated CDV `cdv`.  Pure; safe to call without the point
  /// lock, and the result is reusable across check()/add().
  [[nodiscard]] virtual std::any prepare(const TrafficDescriptor& traffic,
                                         double cdv) const = 0;

  /// Trial admission; does not mutate state.
  [[nodiscard]] virtual HopVerdict check(std::size_t in_port,
                                         std::size_t out_port,
                                         Priority priority,
                                         const std::any& arrival) const = 0;

  /// Commit a previously checked candidate.  Throws on duplicate id.
  virtual void add(ConnectionId id, std::size_t in_port, std::size_t out_port,
                   Priority priority, const std::any& arrival,
                   double lease_expiry) = 0;

  /// Release a committed connection; false when unknown.
  virtual bool remove(ConnectionId id) = 0;
  /// Release a batch; returns how many were present.
  virtual std::size_t remove_many(std::span<const ConnectionId> ids) = 0;
  /// Move the reservation committed under `from` (at these ports and
  /// priority, for this prepared arrival) onto the new id `to` with lease
  /// `lease_expiry` — the rebind that ends every both-sided
  /// DeltaTransaction.  The default is remove + add, which every policy
  /// and decorator without an override inherits; an override must leave
  /// the same state (the bitstream point re-keys in place,
  /// SwitchCac::rekey).
  virtual void rekey(ConnectionId from, ConnectionId to, std::size_t in_port,
                     std::size_t out_port, Priority priority,
                     const std::any& arrival, double lease_expiry) {
    remove(from);
    add(to, in_port, out_port, priority, arrival, lease_expiry);
  }

  [[nodiscard]] virtual bool contains(ConnectionId id) const = 0;
  virtual bool renew_lease(ConnectionId id, double lease_expiry) = 0;
  virtual bool make_permanent(ConnectionId id) = 0;
  /// Remove every reservation whose lease expired at or before `now`;
  /// returns the reclaimed ids.
  virtual std::vector<ConnectionId> reclaim(double now) = 0;

  /// Computed worst-case bound of queue (out_port, priority) for the
  /// current load; nullopt means unbounded.
  [[nodiscard]] virtual std::optional<double> computed_bound(
      std::size_t out_port, Priority priority) const = 0;

  [[nodiscard]] virtual std::size_t connection_count() const = 0;

  /// Rebuild whatever derived caches the policy keeps, so later const
  /// reads are cheap and race-free (the ConcurrentCac priming invariant).
  virtual void prime() const {}

  /// Immutable export of out-port `out_port`'s state for the optimistic
  /// snapshot read path.  `previous` must be a prior export of the SAME
  /// point and out-port (or nullptr); `stale_priorities` lists the
  /// priorities whose state changed since it — everything else may be
  /// structurally shared.  Requires primed caches, so on primed state
  /// the export is a pure read (safe under a shared lock).  The default
  /// returns nullptr: the concurrency layer then keeps every check for
  /// this policy under the shared lock.
  [[nodiscard]] virtual std::shared_ptr<const PointSnapshot>
  export_point_snapshot(std::size_t /*out_port*/,
                        const PointSnapshot* /*previous*/,
                        std::span<const std::size_t> /*stale_priorities*/)
      const {
    return nullptr;
  }

  /// Queue keys (out_port * priorities + priority) invalidated by the
  /// mutations since the last prime() — the snapshot versions the
  /// concurrency layer must advance.  Must be read *before* prime()
  /// (priming may clear the bookkeeping).  nullopt means "unknown":
  /// the caller then advances every version of the touched shard.
  [[nodiscard]] virtual std::optional<std::vector<std::size_t>>
  dirty_queues() const {
    return std::nullopt;
  }

  // Invariant audits (RTCAC_CONTRACT_AUDIT); policies without derived
  // state report vacuous truth.
  [[nodiscard]] virtual bool state_consistent() const { return true; }
  [[nodiscard]] virtual bool bandwidth_conserved() const { return true; }
  [[nodiscard]] virtual bool cache_coherent() const { return true; }

  /// The underlying SwitchCac when this point runs the bit-stream policy;
  /// nullptr otherwise.  Lets diagnostics and tests keep the full
  /// SwitchCac vocabulary without downcasting.
  [[nodiscard]] virtual const SwitchCac* bitstream() const noexcept {
    return nullptr;
  }
  [[nodiscard]] SwitchCac* bitstream() noexcept {
    return const_cast<SwitchCac*>(std::as_const(*this).bitstream());
  }
};

/// Factory for per-queueing-point admission state.  Stateless; the
/// built-in policies are process-wide singletons.
class CacPolicy {
 public:
  CacPolicy() = default;
  CacPolicy(const CacPolicy&) = delete;
  CacPolicy& operator=(const CacPolicy&) = delete;
  virtual ~CacPolicy() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual std::unique_ptr<PolicyCac> make_point(
      const PointConfig& config) const = 0;
};

/// The paper's admission check (Alg. 4.1 over bit streams), wrapping
/// SwitchCac.  This is the default policy of every engine.
class BitstreamCacPolicy final : public CacPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "bitstream";
  }
  [[nodiscard]] std::unique_ptr<PolicyCac> make_point(
      const PointConfig& config) const override;

  [[nodiscard]] static const BitstreamCacPolicy& instance() noexcept;
};

/// The shared hop walk.  Engines describe their route as a span of Hop
/// views (non-owning pointers into their own per-point state) and get
/// back a Decision whose admitted flag, bounds, and RejectReason are
/// identical across engines for identical traces.
class PathEvaluator {
 public:
  struct Params {
    std::size_t priorities = 1;
    CdvPolicy cdv_policy = CdvPolicy::kHard;
    GuaranteeMode guarantee = GuaranteeMode::kComputed;
  };

  /// One queueing point of a route, as seen by the evaluator.
  struct Hop {
    PolicyCac* cac = nullptr;
    std::size_t in_port = 0;
    std::size_t out_port = 0;
    /// Queueing-point name used in the canonical "rejected at <name>"
    /// reason; must outlive the evaluation.
    std::string_view name;
  };

  /// Per-hop trial result: the verdict plus the prepared arrival, which
  /// commit_hop() reuses so the distortion is computed exactly once.
  struct HopEvaluation {
    HopVerdict verdict;
    std::any arrival;
  };

  /// Outcome of a full walk.  On rejection the bounds and sums are reset
  /// (matching what the engines always reported for failed setups).
  struct Decision {
    bool admitted = false;
    RejectReason reject;
    std::vector<double> hop_bounds;
    std::vector<std::any> arrivals;  ///< per hop; reusable by commit()
    double e2e_bound = 0;
    double e2e_advertised = 0;
  };

  explicit PathEvaluator(const Params& params) : params_(params) {}

  [[nodiscard]] const Params& params() const noexcept { return params_; }

  [[nodiscard]] bool priority_valid(Priority priority) const noexcept {
    return priority < params_.priorities;
  }

  /// CDV accumulated over the given upstream advertised bounds under the
  /// configured policy.  The only accumulate_cdv call site in src/.
  [[nodiscard]] double accumulated_cdv(
      std::span<const double> upstream_bounds) const;

  /// CDV accumulated before hops[hop_index] along this route.
  [[nodiscard]] double cdv_before(std::span<const Hop> hops,
                                  std::size_t hop_index,
                                  Priority priority) const;

  /// Worst-case arrival of `traffic` under the bit-stream model at a hop
  /// reached with accumulated CDV `cdv` (Alg. 3.1 distortion).  Shared by
  /// the bitstream policy and the engines' arrival_at_hop diagnostics.
  [[nodiscard]] static BitStream bitstream_arrival(
      const TrafficDescriptor& traffic, double cdv);

  /// Trial of one hop: builds the arrival for the accumulated CDV and
  /// asks the point's policy.  Does not mutate the point.
  [[nodiscard]] HopEvaluation evaluate_hop(std::span<const Hop> hops,
                                           std::size_t hop_index,
                                           const QosRequest& request) const;

  /// Commit a previously evaluated hop, reusing its prepared arrival.
  /// Static (needs no Params): the concurrency layer drives the same
  /// commit over its locked shard points.
  static void commit_hop(const Hop& hop, ConnectionId id, Priority priority,
                         const std::any& arrival, double lease_expiry);

  /// The deadline split (Section 4.3): does the promised bound under the
  /// configured GuaranteeMode meet the requested deadline?  The only
  /// deadline comparison in src/.
  [[nodiscard]] bool deadline_met(double e2e_bound, double e2e_advertised,
                                  double deadline) const;

  // Canonical rejection reasons.  The detail strings are byte-identical
  // to what the engines historically emitted; docs/ARCHITECTURE.md maps
  // the old strings to the codes.
  [[nodiscard]] static RejectReason priority_rejection();
  /// No path around the avoided/failed set (mass rerouting,
  /// net/reroute.h); not attributable to a hop.
  [[nodiscard]] static RejectReason no_route_rejection();
  [[nodiscard]] static RejectReason hop_rejection(std::size_t hop,
                                                  std::string_view point_name,
                                                  std::string_view detail);
  /// kNone when the deadline is met; otherwise the canonical kDeadline
  /// rejection attributed to the destination position `hop_count`.
  [[nodiscard]] RejectReason deadline_rejection(std::size_t hop_count,
                                                double e2e_bound,
                                                double e2e_advertised,
                                                double deadline) const;

  /// Full walk: priority gate, per-hop trial, deadline split.  Commits
  /// nothing; pair with commit() on acceptance.
  [[nodiscard]] Decision evaluate(std::span<const Hop> hops,
                                  const QosRequest& request) const;

  /// Commit an accepted Decision's hops, reusing its prepared arrivals.
  void commit(std::span<const Hop> hops, ConnectionId id,
              const QosRequest& request, std::span<const std::any> arrivals,
              double lease_expiry) const;

  // --- DeltaTransaction: the one reservation-mutation primitive --------
  //
  // Every way reservations change is one transaction: the hops to
  // *release* (the connection's old reservations — held until commit, so
  // make-before-break holds by construction) and the hops to *acquire*
  // under the (possibly new) descriptor.  The familiar operations are
  // instances:
  //
  //   fresh admission   release = {},        acquire = route
  //   teardown          release = route,     acquire = {}
  //   reroute (rehome)  release = old route, acquire = new route
  //   renegotiate       release = route,     acquire = same route,
  //                                          new QosRequest
  //
  // Validation is the ordinary walk over the acquire side while the
  // release side stays committed, so the verdict always covers the
  // *combined* old+new load — conservative by construction: there is
  // never a window with zero reservation, and any double-booking on
  // queueing points the two sides share is exactly what the admission
  // check re-validated.  After the release side is dropped the true
  // load only shrinks, so every bound promised here still holds.  See
  // docs/ARCHITECTURE.md §2 and docs/FAULT_TOLERANCE.md.
  //
  // The admission-walk lint rule keeps the release/acquire interleaving
  // confined to this layer: a function elsewhere in src/ that both
  // releases and acquires reservations is a build failure.

  struct DeltaTransaction {
    /// Hops currently holding reservations of `id` (may be empty).
    std::span<const Hop> release;
    /// Hops to reserve for `*request` (empty for a pure teardown).
    std::span<const Hop> acquire;
    /// The connection's stable id: what the release side holds and what
    /// the acquire side ends up keyed under.
    ConnectionId id = kInvalidConnection;
    /// Fresh network-unique id for the make-before-break window; read
    /// only when both sides are non-empty (queueing points the sides
    /// share then hold old and new reservations side by side until the
    /// swap).
    ConnectionId provisional = kInvalidConnection;
    /// Acquire-side descriptor; must be non-null iff acquire is
    /// non-empty.
    const QosRequest* request = nullptr;
    double lease_expiry = 0;
  };

  /// Validates the transaction: the full walk over the acquire side
  /// against the current state.  The release side's reservations are
  /// still part of every queueing point's load, so the verdict covers
  /// the combined old+new state.  A pure release trivially admits.
  /// Commits nothing.
  [[nodiscard]] Decision evaluate_delta(const DeltaTransaction& txn) const;

  /// Commits an accepted transaction, reusing the evaluated arrivals.
  /// Infallible — no admission decision is re-opened:
  ///   * acquire only: commit the hops under `id` (fresh admission);
  ///   * release only: release `id` at every hop (teardown);
  ///   * both sides:   commit the acquire side under `provisional`,
  ///                   release `id`, rebind `provisional` onto `id`
  ///                   (reroute / renegotiate).
  void commit_delta(const DeltaTransaction& txn,
                    std::span<const std::any> arrivals) const;

  /// evaluate_delta + commit_delta on acceptance.
  [[nodiscard]] Decision execute(const DeltaTransaction& txn) const;

  /// Static commit core of a both-sided transaction over explicit hop
  /// views — needs no Params, so ConcurrentCac::renegotiate_path drives
  /// it over its locked shard points: commit the acquire side under
  /// `provisional`, then finalize_delta.
  static void commit_delta_hops(std::span<const Hop> release,
                                std::span<const Hop> acquire, ConnectionId id,
                                ConnectionId provisional, Priority priority,
                                std::span<const std::any> arrivals,
                                double lease_expiry);

  /// The break-then-rebind epilogue of a both-sided transaction, for
  /// drivers whose acquire-side commits already happened hop by hop
  /// under `provisional` (the signaling MODIFY walk): releases `id`
  /// from the release hops, then rebinds `provisional` onto `id` over
  /// the acquire hops.
  static void finalize_delta(std::span<const Hop> release,
                             std::span<const Hop> acquire, ConnectionId id,
                             ConnectionId provisional, Priority priority,
                             std::span<const std::any> arrivals,
                             double lease_expiry);

  /// Release `id` at every hop (tolerant of hops that no longer hold
  /// it); returns how many reservations were actually released.
  static std::size_t release_path(std::span<const Hop> hops, ConnectionId id);

  /// A transaction with an empty release side, pre-packaged for the
  /// reroute window: evaluates the replacement route against the
  /// current (combined) state and, on acceptance, commits it under
  /// `provisional_id`.  Rejection commits nothing.
  [[nodiscard]] Decision admit_delta(std::span<const Hop> hops,
                                     ConnectionId provisional_id,
                                     const QosRequest& request,
                                     double lease_expiry) const;

  /// The rebind half of finalize_delta, kept callable on its own: after
  /// the old path is released, re-keys the reservations committed under
  /// `provisional_id` onto the connection's stable `final_id` at every
  /// hop (PolicyCac::rekey).  Deterministic and infallible — each hop
  /// swap moves an arrival that was already committed, so no admission
  /// decision is re-opened.
  void rebind(std::span<const Hop> hops, ConnectionId provisional_id,
              ConnectionId final_id, const QosRequest& request,
              std::span<const std::any> arrivals, double lease_expiry) const;

 private:
  [[nodiscard]] double promised(double e2e_bound, double e2e_advertised) const;

  static void rebind_hops(std::span<const Hop> hops,
                          ConnectionId provisional_id, ConnectionId final_id,
                          Priority priority,
                          std::span<const std::any> arrivals,
                          double lease_expiry);

  Params params_;
};

}  // namespace rtcac
