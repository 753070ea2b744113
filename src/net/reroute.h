// rtcac/net/reroute.h
//
// Survivability layer: mass rerouting with make-before-break failover.
//
// The paper's CAC gives a connection a hard end-to-end guarantee for as
// long as its path exists.  When a switch or link dies, every connection
// crossing it loses that path at once; the question this layer answers is
// what the network *does* about it.  The RerouteCoordinator subscribes to
// FaultInjector component events, indexes live connections by the links
// and switches they traverse, and drives recovery:
//
//   * Alternate-path selection via shortest_route_avoiding over the set
//     of all currently-down components (routing.h RouteAvoidance).
//   * Make-before-break re-admission through ConnectionManager::rehome —
//     the replacement path is checked and reserved while the old
//     reservation is still held, then the record is swung and the old
//     path released.  A surviving connection never has a window with
//     zero reserved paths, and the combined old+new load is exactly what
//     admission re-validated.
//   * Priority-ordered requeueing: when a failure strands many
//     connections at once, rehoming attempts run highest priority first
//     (lowest Priority value; ties broken by ConnectionId for
//     determinism).
//   * Bounded retry with exponential backoff: a connection that cannot
//     be rehomed right now (no route, admission rejection) retries at
//     failed_at + backoff, 2*backoff, ... up to Params::max_attempts
//     admission attempts.  A component recovery re-arms every pending
//     retry immediately (the topology just changed in its favor).
//   * Degradation reporting: a connection whose retry budget is
//     exhausted is torn down (TeardownReason::kFailure — the network,
//     not the user, ended it) and recorded in the DegradationReport with
//     the canonical RejectReason of its final attempt.  Nothing is
//     dropped silently.
//
// Every decision is journalled (decisions()) so soak tests can replay a
// seeded failure storm twice and require bit-identical outcomes.  The
// journal and the degradation report keep only their newest entries
// (kDecisionWindow, kDegradedWindow), so the coordinator's memory does
// not grow with the failures it has handled; Stats keeps the totals.
//
// Time is driven explicitly: advance_to(now) interleaves scheduled fault
// boundaries (FaultInjector::next_scheduled_change) with due retries in
// tick order, fault boundaries first on ties, so a retry at tick t always
// sees the component state of tick t.  quiesce() runs the retry queue dry
// without advancing past it.

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/connection_manager.h"
#include "net/fault_injector.h"
#include "net/label_manager.h"

namespace rtcac {

/// One connection the survivability layer gave up on.
struct DegradationEntry {
  ConnectionId id = kInvalidConnection;
  Priority priority = 0;
  /// Canonical rejection of the final admission attempt (kNoRoute when
  /// no alternate path existed, kAdmission/kDeadline when one did but
  /// the combined load could not carry it).
  RejectReason reason;
  std::size_t attempts = 0;  ///< admission attempts spent
  Tick failed_at = 0;        ///< when its path first broke
  Tick gave_up_at = 0;       ///< when the budget ran out
};

/// Connections that could not be rehomed, and why: the newest
/// RerouteCoordinator::kDegradedWindow of them, oldest first.
struct DegradationReport {
  std::deque<DegradationEntry> entries;

  [[nodiscard]] bool empty() const noexcept { return entries.empty(); }
  [[nodiscard]] std::string to_string() const;
};

/// One journalled reroute decision (the replay-determinism record).
struct RerouteDecision {
  enum class Outcome {
    kRehomed,         ///< make-before-break rehome onto `route` succeeded
    kKeptOriginal,    ///< original path became whole again before rehoming
    kRetryScheduled,  ///< attempt failed, retry pending
    kDegraded,        ///< retry budget exhausted; connection torn down
  };

  Tick at = 0;
  ConnectionId id = kInvalidConnection;
  Outcome outcome = Outcome::kRetryScheduled;
  Route route;          ///< the path kept/adopted (empty on failure outcomes)
  RejectReason reason;  ///< why the attempt failed (default on success)

  friend bool operator==(const RerouteDecision&,
                         const RerouteDecision&) = default;
};

[[nodiscard]] const char* to_string(RerouteDecision::Outcome outcome) noexcept;

class RerouteCoordinator {
 public:
  struct Params {
    /// Admission attempts per reroute episode before degrading.
    std::uint32_t max_attempts = 4;
    /// Backoff after the first failed attempt, in ticks (>= 1).
    Tick retry_backoff = 16;
    /// Backoff growth per further attempt (>= 1; 2 = exponential).
    Tick backoff_multiplier = 2;
  };

  struct Stats {
    std::size_t failure_events = 0;   ///< component-down events observed
    std::size_t recovery_events = 0;  ///< component-up events observed
    std::size_t episodes = 0;         ///< connections that lost their path
    std::size_t rehomed = 0;          ///< rehomed onto an alternate path
    std::size_t kept_original = 0;    ///< original path recovered in time
    std::size_t degraded = 0;         ///< torn down, budget exhausted
    std::size_t attempts = 0;         ///< admission attempts made
    /// Re-admission latency (rehome tick - failure tick) across rescued
    /// connections, for the bounded-latency soak assertions.
    Tick max_rescue_latency = 0;
    Tick total_rescue_latency = 0;
    std::size_t decisions = 0;  ///< decisions journalled, evicted included
    /// Final-attempt rejection codes of every degraded connection.
    std::map<RejectCode, std::size_t> degraded_by_reason;
  };

  /// Journal entries and degradation entries the coordinator retains.  A
  /// decision stays readable until this many later decisions have been
  /// journalled (likewise for degradations).
  static constexpr std::size_t kDecisionWindow = 4096;
  static constexpr std::size_t kDegradedWindow = 4096;

  /// Subscribes to `faults` for the lifetime of the coordinator.  The
  /// label manager is optional; when given, a successful rehome rebinds
  /// the connection's VPI/VCI chain onto the new route and a degradation
  /// releases its labels.
  RerouteCoordinator(ConnectionManager& manager, FaultInjector& faults);
  RerouteCoordinator(ConnectionManager& manager, FaultInjector& faults,
                     Params params, LabelManager* labels = nullptr);
  ~RerouteCoordinator();

  RerouteCoordinator(const RerouteCoordinator&) = delete;
  RerouteCoordinator& operator=(const RerouteCoordinator&) = delete;

  /// Drives time forward to `now`: processes every scheduled fault
  /// boundary and every due retry in tick order (boundary first on a
  /// tie), then leaves the fault clock at `now`.  Manual fail_*/recover_*
  /// calls on the injector are handled synchronously as they happen.
  void advance_to(Tick now);

  /// Runs the pending retry queue dry: advances exactly to each due
  /// retry (processing any fault boundary at or before it) until no
  /// retries remain.  Scheduled outages beyond the last retry are left
  /// untouched.
  void quiesce();

  /// Connections currently waiting for a rehome attempt.
  [[nodiscard]] std::size_t pending_reroutes() const noexcept {
    return pending_.size();
  }
  /// Earliest tick at which advance_to would act (due retry or scheduled
  /// fault boundary), if any.
  [[nodiscard]] std::optional<Tick> next_wakeup() const;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const DegradationReport& degradation() const noexcept {
    return degraded_;
  }
  /// The newest kDecisionWindow decisions, oldest first; Stats::decisions
  /// counts them all.
  [[nodiscard]] const std::deque<RerouteDecision>& decisions() const noexcept {
    return decisions_;
  }
  [[nodiscard]] const std::set<NodeId>& down_nodes() const noexcept {
    return down_nodes_;
  }
  [[nodiscard]] const std::set<LinkId>& down_links() const noexcept {
    return down_links_;
  }
  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  /// A reroute episode: one connection whose current path is (or was)
  /// broken, waiting for its next admission attempt.
  struct Episode {
    Priority priority = 0;
    std::uint32_t attempts = 0;  ///< admission attempts already spent
    Tick failed_at = 0;          ///< when the path first broke
    Tick due = 0;                ///< next attempt tick
  };

  void on_component_event(const ComponentEvent& event);
  void on_failure(const ComponentEvent& event);
  void on_recovery(const ComponentEvent& event);
  /// Runs every episode with due <= now, highest priority first.
  void attempt_due(Tick now);
  /// One admission attempt for one episode.  `it` is erased on any
  /// terminal outcome.
  void attempt_reroute(std::map<ConnectionId, Episode>::iterator it, Tick now);

  [[nodiscard]] bool route_broken(const Route& route) const;
  [[nodiscard]] std::optional<Tick> next_retry_due() const;

  ConnectionManager& manager_;
  FaultInjector& faults_;
  Params params_;
  LabelManager* labels_;
  std::size_t observer_token_ = 0;

  /// Effective component state, mirrored from the event stream (the
  /// avoidance set handed to the router).
  std::set<NodeId> down_nodes_;
  std::set<LinkId> down_links_;
  std::map<ConnectionId, Episode> pending_;
  DegradationReport degraded_;
  std::deque<RerouteDecision> decisions_;  ///< at most kDecisionWindow
  Stats stats_;
};

}  // namespace rtcac
