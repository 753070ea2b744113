// rtcac/net/connection_manager.h
//
// Network-level connection admission control (Section 4.3), in the
// "central connection admission control server" deployment the paper
// describes for RTnet: one ConnectionManager owns the CAC state of every
// switch and walks a connection's route hop by hop, exactly as the
// distributed SETUP procedure would (signaling.h drives the same state
// machine message-by-message).
//
// The walk itself — per-hop arrival construction under accumulated CDV,
// the admission query, and the GuaranteeMode deadline split — is the
// shared core/path_eval.h PathEvaluator; this class is a thin serial
// driver that owns one PolicyCac per switch and feeds the evaluator.
// The admission policy is pluggable (CacPolicy): the default is the
// paper's bit-stream check (SwitchCac); baseline/policies.h provides
// `peak` and `max_rate` for comparison workloads.
//
// End-to-end deadline semantics are selectable:
//   * GuaranteeMode::kAdvertised — sum of advertised hop bounds must meet
//     the deadline.  Load-independent: the promise can never be invalidated
//     by later admissions.  What an online switched-VC service should use.
//   * GuaranteeMode::kComputed — sum of the worst-case bounds computed at
//     setup time must meet the deadline.  Tighter, but a later admission
//     can grow another connection's computed bound (never past the
//     advertised cap).  This matches the paper's off-line RTnet evaluation
//     (Figures 10-13), where the full connection set is known.

#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cdv.h"
#include "core/connection.h"
#include "core/path_eval.h"
#include "core/switch_cac.h"
#include "net/topology.h"

namespace rtcac {

/// Why a connection's reservations were released (diagnostics counters).
enum class TeardownReason {
  kLocal,     ///< ordinary user-requested teardown
  kRelease,   ///< signaling RELEASE tearing down a failed/timed-out setup
  kFailure,   ///< component failure forced the release
  kRerouted,  ///< old path released after a make-before-break rehome
};

[[nodiscard]] const char* to_string(TeardownReason reason) noexcept;

/// One queueing point a route crosses: switch `node` transmitting onto
/// `link` from its output queue `out_port`, fed from input `in_port`.
struct HopRef {
  NodeId node = 0;
  LinkId link = 0;
  std::size_t in_port = 0;
  std::size_t out_port = 0;
};

class ConnectionManager {
 public:
  struct Params {
    std::size_t priorities = 1;
    /// Default advertised per-queue bound Dmax, in cell times (== FIFO
    /// depth in cells).
    double advertised_bound = 32;
    CdvPolicy cdv_policy = CdvPolicy::kHard;
    GuaranteeMode guarantee = GuaranteeMode::kComputed;
    /// Per-aggregate segment cap forwarded to every queueing point
    /// (PointConfig::coalesce_budget; 0 = exact).  Policies with
    /// per-cell aggregates trade admit-side conservatism for
    /// population-independent admission cost; a coalesced engine may
    /// reject a connection the exact engine admits, never the reverse.
    std::size_t coalesce_budget = 0;
  };

  struct SetupResult {
    bool accepted = false;
    ConnectionId id = kInvalidConnection;
    std::string reason;                   ///< empty when accepted
    /// Canonical machine-readable rejection (core/path_eval.h); reason
    /// always equals reject.detail.
    RejectReason reject;
    std::optional<NodeId> rejecting_node; ///< switch that said no, if any
    /// Computed worst-case bound at each queueing point, at setup time.
    std::vector<double> hop_bounds;
    double e2e_bound_at_setup = 0;  ///< sum of hop_bounds
    double e2e_advertised = 0;      ///< sum of advertised hop bounds
  };

  /// Bit-stream (paper Alg. 4.1) policy.
  ConnectionManager(const Topology& topology, const Params& params);
  /// Explicit admission policy; `policy` is only used during
  /// construction (it is a stateless factory).
  ConnectionManager(const Topology& topology, const Params& params,
                    const CacPolicy& policy);

  ConnectionManager(const ConnectionManager&) = delete;
  ConnectionManager& operator=(const ConnectionManager&) = delete;

  /// Admits (or rejects) a connection over `route`.  On success the state
  /// of every switch on the route is updated; on failure nothing is
  /// committed and `reason`/`reject` explain the rejection.
  SetupResult setup(const QosRequest& request, const Route& route);

  /// The same decision setup() would make right now, committing nothing
  /// (result.id stays kInvalidConnection).  The serial oracle the
  /// equivalence suite and the parallel benchmark gate replay against.
  [[nodiscard]] SetupResult check(const QosRequest& request,
                                  const Route& route) const;

  /// Delta admission for an established connection: could `id` be carried
  /// over `new_route` *in addition to* the current load (its old
  /// reservations still held — the make-before-break combined check)?
  /// Commits nothing.  Throws (RTCAC_REQUIRE) on an unknown id.
  [[nodiscard]] SetupResult check_reroute(ConnectionId id,
                                          const Route& new_route) const;

  /// Make-before-break rehome (docs/FAULT_TOLERANCE.md, "Survivability"):
  /// admits `new_route` as a delta against the combined old+new load,
  /// commits it under a provisional id, releases the old path (counted as
  /// TeardownReason::kRerouted), and rebinds the new reservations onto
  /// the connection's stable id.  The connection keeps its id and its
  /// record follows the new route; at no instant does it hold zero
  /// reserved paths.  On rejection nothing changes — the old path stays
  /// reserved — and the result carries the canonical RejectReason.
  SetupResult rehome(ConnectionId id, const Route& new_route);

  /// In-place renegotiation (MODIFY): swap an established connection's
  /// descriptor for `new_request` over its existing route, re-validating
  /// the paper's Alg. 3.1 walk against the combined old+new load (the
  /// old reservations stay committed until the full-path verdict — the
  /// same make-before-break DeltaTransaction that drives rehome, with
  /// release == acquire).  On acceptance the record's request is
  /// updated; on rejection nothing changes and the old descriptor stays
  /// reserved.  Throws (RTCAC_REQUIRE) on an unknown id.
  SetupResult renegotiate(ConnectionId id, const QosRequest& new_request);

  /// The decision renegotiate() would make right now, committing
  /// nothing: the new descriptor checked over the connection's current
  /// hops while the old reservations are still held — exactly the
  /// release-then-readmit-under-combined-load oracle.  Throws on an
  /// unknown id.
  [[nodiscard]] SetupResult check_renegotiate(
      ConnectionId id, const QosRequest& new_request) const;

  /// Releases a connection, restoring every switch's state.  Returns
  /// false for an unknown id.  The reason-tagged variant feeds the
  /// teardowns() diagnostics counters (the plain form counts as kLocal).
  bool teardown(ConnectionId id);
  bool teardown(ConnectionId id, TeardownReason reason);

  /// Teardowns performed so far for `reason`.
  [[nodiscard]] std::size_t teardowns(TeardownReason reason) const;

  /// Orphan-reservation reclamation sweep: removes, from every switch,
  /// reservations whose lease expired at or before `now`.  Adopted
  /// connections are permanent and never reclaimed.  Returns the distinct
  /// orphaned connection ids and the number of hop reservations returned.
  struct ReclaimResult {
    std::vector<ConnectionId> orphans;     ///< distinct ids, ascending
    std::size_t reservations_reclaimed = 0;  ///< hop entries removed
  };
  ReclaimResult reclaim(double now);

  /// Cumulative count of distinct orphaned connections reclaimed.
  [[nodiscard]] std::size_t orphans_reclaimed() const noexcept {
    return orphans_reclaimed_;
  }

  /// Queueing points of a route (links transmitted by switches).  Throws
  /// std::invalid_argument on a malformed route.
  [[nodiscard]] std::vector<HopRef> queueing_points(const Route& route) const;

  /// Worst-case arrival stream the connection presents at queueing point
  /// `hop_index` of `hops` (CDV-distorted per the configured policy,
  /// bit-stream representation regardless of the admission policy).
  [[nodiscard]] BitStream arrival_at_hop(const TrafficDescriptor& traffic,
                                         std::span<const HopRef> hops,
                                         std::size_t hop_index,
                                         Priority priority) const;

  /// End-to-end worst-case bound of an established connection under the
  /// *current* total load (off-line evaluation, Figures 10-13); nullopt if
  /// any hop is unbounded or the id is unknown.
  [[nodiscard]] std::optional<double> current_e2e_bound(ConnectionId id) const;

  /// Per-switch CAC state (advertised-bound tuning, diagnostics).  Throws
  /// std::invalid_argument for a terminal node, and (via RTCAC_REQUIRE)
  /// when the configured policy is not the bit-stream one.
  [[nodiscard]] SwitchCac& switch_cac(NodeId node);
  [[nodiscard]] const SwitchCac& switch_cac(NodeId node) const;

  /// Policy-agnostic per-switch admission state.
  [[nodiscard]] PolicyCac& policy_point(NodeId node);
  [[nodiscard]] const PolicyCac& policy_point(NodeId node) const;

  /// The shared hop-walk evaluator (used by SignalingEngine to evaluate
  /// SETUP hops with identical semantics).
  [[nodiscard]] const PathEvaluator& evaluator() const noexcept {
    return evaluator_;
  }

  [[nodiscard]] const std::string& policy_name() const noexcept {
    return policy_name_;
  }

  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const Params& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t connection_count() const noexcept {
    return records_.size();
  }

  struct ConnectionRecord {
    QosRequest request;
    Route route;
    std::vector<HopRef> hops;
  };
  [[nodiscard]] const std::map<ConnectionId, ConnectionRecord>& connections()
      const noexcept {
    return records_;
  }

  /// Signaling support: reserves a fresh network-unique connection id for
  /// a hop-by-hop (distributed) setup.
  [[nodiscard]] ConnectionId allocate_id() noexcept { return next_id_++; }

  /// Signaling support: registers a connection whose per-switch state was
  /// committed externally (by SignalingEngine), making it visible to
  /// teardown() and current_e2e_bound().  Throws on duplicate id.  Verifies
  /// (under RTCAC_ASSERT) that every hop of the record actually holds a
  /// reservation for `id`, then makes those reservations permanent — the
  /// lease refresh the CONNECTED confirmation implies.
  void adopt(ConnectionId id, ConnectionRecord record);

  /// Signaling support: completes a distributed MODIFY whose new
  /// reservations were already committed hop by hop under `provisional`
  /// (the kModify walk).  Runs the DeltaTransaction epilogue — release
  /// the old descriptor, rebind `provisional` onto the stable id under
  /// the permanent lease — and swings the record's request.
  /// `arrivals` are the per-hop prepared arrivals of the new descriptor,
  /// in record-hop order.  Throws on an unknown id.
  void complete_modify(ConnectionId id, ConnectionId provisional,
                       const QosRequest& new_request,
                       std::span<const std::any> arrivals);

  /// PathEvaluator views of a route's queueing points (hop names point
  /// into the topology and stay valid for its lifetime).
  [[nodiscard]] std::vector<PathEvaluator::Hop> eval_hops(
      std::span<const HopRef> hops) const;

 private:
  const Topology& topology_;
  Params params_;
  PathEvaluator evaluator_;
  std::string policy_name_;
  /// Index into cacs_ per node; npos for terminals.
  std::vector<std::size_t> cac_index_;
  std::vector<std::unique_ptr<PolicyCac>> cacs_;
  std::map<ConnectionId, ConnectionRecord> records_;
  std::map<TeardownReason, std::size_t> teardowns_;
  std::size_t orphans_reclaimed_ = 0;
  ConnectionId next_id_ = 1;
};

}  // namespace rtcac
