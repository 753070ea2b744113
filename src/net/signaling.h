// rtcac/net/signaling.h
//
// The distributed connection setup procedure of Section 4.1, hardened for
// lossy, failure-prone control planes:
//
//   * the source end system sends a SETUP message carrying
//     (PCR, SCR, MBS, D) along the preselected route;
//   * each switch runs the CAC check; on success it commits the
//     reservation — under a *lease* that expires unless refreshed — and
//     forwards SETUP downstream; on failure it sends REJECT back upstream
//     (releasing the reservations already made);
//   * when SETUP reaches the destination, CONNECTED travels back to the
//     source, which adopts the connection into the ConnectionManager
//     (making the hop reservations permanent) and may start sending cells.
//
// Fault tolerance (docs/FAULT_TOLERANCE.md):
//
//   * messages move on a virtual clock (the simulator's EventQueue; one
//     tick per hop) instead of an unlosable FIFO, so an attached
//     FaultInjector can drop, duplicate, delay and reorder them, and fail
//     links or switches mid-protocol;
//   * the source arms a retransmission timer per SETUP; on expiry the
//     attempt epoch is bumped and SETUP is resent with exponentially
//     backed-off timeouts, up to Timers::max_retries times;
//   * processing is idempotent: a hop that already holds the reservation
//     renews its lease instead of double-committing, and any message from
//     a finished or superseded attempt epoch is discarded as stale;
//   * when the retry budget is exhausted the source gives up, reports a
//     timeout outcome, and sends RELEASE down the route to tear down
//     whatever was committed; reservations a lost RELEASE leaves behind
//     die with their leases (ConnectionManager::reclaim).
//
// Memory follows the requests in flight, not the requests served: the
// protocol trace and the SETUP/MODIFY outcome ledgers are fixed windows
// of the newest entries, and a RELEASE walk's bookkeeping retires once
// no message of the walk can still arrive (release_horizon()).
//
// In-place renegotiation (MODIFY/MODIFY-REJECT/MODIFIED) reuses the same
// machinery over an established connection's route: MODIFY commits the
// *new* descriptor hop by hop under a fresh provisional id while the old
// reservations stay untouched (make-before-break — the DeltaTransaction
// of core/path_eval.h with release == acquire), MODIFIED triggers the
// atomic swap at the source (ConnectionManager::complete_modify), and
// MODIFY-REJECT or an exhausted retry budget rolls back only the
// provisional commits — a lost MODIFY can never leave mixed old/new
// reservations, because the old descriptor is released only after the
// full-path verdict, and provisional residue dies with its leases.
//
// Messages are processed one at a time — step() — in virtual-time order,
// so tests and examples can interleave and observe the protocol, including
// rejection cascades.  Processing is deterministic; under a seeded
// FaultInjector the complete failure trace replays from the seed.

#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/connection_manager.h"
#include "net/fault_injector.h"
#include "net/signaling_message.h"
#include "sim/event_queue.h"
#include "util/recent_map.h"

namespace rtcac {

/// Final fate of a signaling attempt.
struct SignalingOutcome {
  bool connected = false;
  std::string reason;  ///< empty when connected; equals reject.detail
  /// Canonical machine-readable rejection (core/path_eval.h).
  RejectReason reject;
  std::optional<NodeId> rejecting_node;
  double e2e_bound_at_setup = 0;
  double e2e_advertised = 0;
};

class SignalingEngine {
 public:
  /// Virtual-clock protocol parameters (all times in ticks = cell times).
  struct Timers {
    Tick hop_latency = 1;  ///< control-message transit per hop
    Tick setup_rto = 32;   ///< initial SETUP retransmission timeout
    std::uint32_t backoff = 2;      ///< RTO multiplier per retransmission
    std::uint32_t max_retries = 4;  ///< retransmissions before giving up
    Tick lease = 256;  ///< lifetime of an unconfirmed hop reservation
  };

  struct Counters {
    std::size_t retransmits = 0;    ///< SETUPs re-sent after a lost round
    std::size_t timeouts = 0;       ///< attempts abandoned (budget spent)
    std::size_t stale_dropped = 0;  ///< finished/superseded-epoch messages
    std::size_t releases_sent = 0;  ///< RELEASE teardowns initiated
    std::size_t released_hops = 0;  ///< hop reservations RELEASE returned
    std::size_t lost_to_faults = 0; ///< messages the fault layer destroyed
    std::map<RejectCode, std::size_t> rejects_by_reason;
    std::size_t modifies_sent = 0;       ///< MODIFY walks initiated
    std::size_t modifies_completed = 0;  ///< descriptor swaps confirmed
    std::size_t modify_retransmits = 0;  ///< MODIFYs re-sent after a loss
    std::map<RejectCode, std::size_t> modify_rejects_by_reason;
    /// Messages processed over the engine's lifetime; trace() keeps only
    /// the most recent kTraceWindow of them.
    std::size_t messages_processed = 0;
    /// SETUP attempts with a final outcome, and those that connected,
    /// over the engine's lifetime; outcomes() keeps only the newest.
    std::size_t setups_finished = 0;
    std::size_t setups_connected = 0;
    /// RELEASE walks whose bookkeeping retired unfinished: a message of
    /// the walk was lost, and its horizon passed (release_horizon()).
    std::size_t releases_retired = 0;
  };

  /// Messages the protocol trace retains.  A server runs for months, so
  /// the trace is a window, not a log: its memory must not grow with the
  /// requests served.
  static constexpr std::size_t kTraceWindow = 4096;

  /// Finished SETUP and MODIFY outcomes the engine retains.  An outcome
  /// stays readable until this many later requests of its kind have
  /// finished, so a client that reads each outcome within a window's
  /// worth of completions never misses one.
  static constexpr std::size_t kOutcomeWindow = 4096;
  static constexpr std::size_t kModifyOutcomeWindow = 4096;

  using OutcomeWindow =
      RecentMap<ConnectionId, SignalingOutcome, kOutcomeWindow>;
  using ModifyOutcomeWindow =
      RecentMap<ConnectionId, SignalingOutcome, kModifyOutcomeWindow>;

  explicit SignalingEngine(ConnectionManager& manager);
  /// `faults`, when given, must outlive the engine.
  SignalingEngine(ConnectionManager& manager, Timers timers,
                  FaultInjector* faults = nullptr);

  SignalingEngine(const SignalingEngine&) = delete;
  SignalingEngine& operator=(const SignalingEngine&) = delete;

  /// Queues a SETUP for `request` over `route` and arms its
  /// retransmission timer; returns the provisional connection id.  Throws
  /// std::invalid_argument on a malformed route or an out-of-range
  /// priority — validation happens *before* an id is allocated, so a bad
  /// request burns no id and leaves no in-flight residue.
  ConnectionId initiate(const QosRequest& request, const Route& route);

  /// Processes queued events in virtual-time order until one signaling
  /// message has been handled; returns false once the queue is drained.
  /// Expired timers and messages destroyed in transit are absorbed
  /// silently along the way.
  bool step();

  /// Runs until no events remain.  Every initiated setup is guaranteed an
  /// outcome by then: at worst its retransmission budget expires.
  void run();

  /// Starts an asynchronous RELEASE walk tearing down an *established*
  /// (adopted) connection hop by hop on the virtual clock; the manager
  /// records the completed teardown with TeardownReason::kRelease.
  /// Returns false for an unknown id or a release already in progress.
  /// A walk lost to a fault stops being in progress once its horizon
  /// has passed, so the release can then be retried.
  bool release(ConnectionId id);

  /// Queues a MODIFY walk renegotiating established connection `id` to
  /// `new_request` over its current route and arms its retransmission
  /// timer.  The new descriptor is committed hop by hop under a fresh
  /// provisional id while the old reservations stay in place; only the
  /// MODIFIED confirmation at the source performs the swap.  Returns
  /// false for an unknown id, or one that is already being modified or
  /// released.  Throws std::invalid_argument on a malformed descriptor
  /// or an out-of-range priority — validation happens before the
  /// provisional id is allocated.
  bool modify(ConnectionId id, const QosRequest& new_request);

  /// Outcome of the most recent finished MODIFY of `id` (connected ==
  /// swap confirmed); nullopt while in flight, never modified, or once
  /// kModifyOutcomeWindow later MODIFYs have finished.
  [[nodiscard]] std::optional<SignalingOutcome> modify_outcome(
      ConnectionId id) const;

  /// The newest finished MODIFY outcomes, by connection id.
  [[nodiscard]] const ModifyOutcomeWindow& modify_outcomes() const noexcept {
    return modify_outcomes_;
  }

  /// Outcome of a finished attempt; nullopt while still in flight, or
  /// once kOutcomeWindow later attempts have finished.
  [[nodiscard]] std::optional<SignalingOutcome> outcome(
      ConnectionId id) const;

  /// The newest finished attempts, by connection id; Counters holds the
  /// lifetime totals.
  [[nodiscard]] const OutcomeWindow& outcomes() const noexcept {
    return outcomes_;
  }

  /// RELEASE walks whose bookkeeping is still held: walks in transit,
  /// and lost walks whose horizon has not yet passed.
  [[nodiscard]] std::size_t releases_in_flight() const noexcept {
    return releasing_.size();
  }

  /// Ticks after which no message of a RELEASE walk over `hops` hops can
  /// still arrive: every hop costs at most the hop latency plus the
  /// longest extra transit the fault layer gives one message copy.
  [[nodiscard]] Tick release_horizon(std::size_t hops) const noexcept;

  /// The most recent kTraceWindow messages processed, oldest first
  /// (protocol trace); Counters::messages_processed counts them all.
  /// Messages lost in transit never reach the trace.
  [[nodiscard]] const std::deque<SignalingMessage>& trace() const noexcept {
    return trace_;
  }

  /// Control messages currently in transit (timer events excluded).
  [[nodiscard]] std::size_t pending_messages() const noexcept {
    return pending_messages_;
  }

  /// Virtual time of the most recently processed event.
  [[nodiscard]] Tick now() const noexcept { return events_.last_popped(); }

  [[nodiscard]] const Counters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const Timers& timers() const noexcept { return timers_; }
  [[nodiscard]] const ConnectionManager& manager() const noexcept {
    return manager_;
  }

 private:
  /// Per-hop commit state of one setup attempt.  Kept per hop (not as a
  /// single high-water mark) because retransmitted walks skip hops that
  /// are still committed, and stale rejects may punch holes.
  struct HopState {
    bool committed = false;
    double bound = 0;       ///< computed bound frozen at commit time
    double advertised = 0;  ///< advertised bound at commit time
  };

  struct InFlight {
    QosRequest request;
    Route route;
    std::vector<HopRef> hops;
    /// PathEvaluator views of `hops` (pointers into the manager's
    /// per-switch policy state), built once at initiate().
    std::vector<PathEvaluator::Hop> eval_hops;
    std::vector<HopState> hop_states;
    std::uint32_t attempt = 0;  ///< current epoch; older messages are stale
    std::uint32_t retries = 0;
    Tick rto = 0;  ///< timeout of the current attempt
    NodeId source = 0;
    NodeId destination = 0;
  };

  /// A RELEASE walk in progress: its hops, and the tick by which every
  /// message of the walk has been delivered or lost.
  struct ReleaseWalk {
    std::vector<HopRef> hops;
    Tick retire_at = 0;
  };

  /// One in-flight MODIFY of an established connection, keyed by the
  /// connection's *stable* id.  The new descriptor's reservations ride
  /// under `provisional` until MODIFIED confirms the full path; the
  /// prepared arrivals are kept per hop so the final rebind reuses
  /// exactly what was committed.
  struct ModifyFlight {
    QosRequest request;  ///< the NEW descriptor being negotiated
    ConnectionId provisional = kInvalidConnection;
    Route route;
    std::vector<HopRef> hops;
    std::vector<PathEvaluator::Hop> eval_hops;
    std::vector<HopState> hop_states;
    std::vector<std::any> arrivals;  ///< per hop, set at commit time
    std::uint32_t attempt = 0;
    std::uint32_t retries = 0;
    Tick rto = 0;
    NodeId source = 0;
    NodeId destination = 0;
  };

  void send(SignalingMessage m, Tick transit);
  void enqueue(SignalingMessage m, Tick at);
  void deliver(const SignalingMessage& m);

  void process_setup(const SignalingMessage& m);
  void process_reject(const SignalingMessage& m);
  void process_connected(const SignalingMessage& m);
  void process_release(const SignalingMessage& m);
  /// Retires the RELEASE walk of `id` that was due to end by
  /// `retire_at`, unless it completed or a later walk replaced it.
  void on_release_timer(ConnectionId id, Tick retire_at);
  void arm_release_timer(ConnectionId id, const ReleaseWalk& walk);
  /// Finalizes a failed attempt: records the outcome, counts the reject
  /// category, and starts a RELEASE sweep over any committed residue.
  void process_failure(ConnectionId id, InFlight& flight,
                       SignalingOutcome outcome, RejectCode category);
  void on_setup_timer(ConnectionId id, std::uint32_t attempt);
  void arm_setup_timer(ConnectionId id, const InFlight& flight);
  void send_setup(ConnectionId id, const InFlight& flight);

  void process_modify(const SignalingMessage& m);
  void process_modify_reject(const SignalingMessage& m);
  void process_modified(const SignalingMessage& m);
  /// Finalizes a failed MODIFY: records the outcome, counts the reject
  /// category, and rolls back any provisional residue via a RELEASE walk
  /// keyed by the provisional id (the old reservations are untouched —
  /// the rollback guarantee).
  void process_modify_failure(ConnectionId id, ModifyFlight& flight,
                              SignalingOutcome outcome, RejectCode category);
  void on_modify_timer(ConnectionId id, std::uint32_t attempt);
  void arm_modify_timer(ConnectionId id, const ModifyFlight& flight);
  void send_modify(ConnectionId id, const ModifyFlight& flight);

  ConnectionManager& manager_;
  Timers timers_;
  FaultInjector* faults_;
  EventQueue events_;
  std::size_t pending_messages_ = 0;
  bool processed_message_ = false;  ///< set by deliver(), read by step()
  std::map<ConnectionId, InFlight> in_flight_;
  /// In-flight MODIFYs by stable connection id (at most one each).
  std::map<ConnectionId, ModifyFlight> modifying_;
  /// Teardowns in progress: RELEASE walks outlive their (already
  /// finalized) in-flight record.  MODIFY rollbacks enter here keyed by
  /// their *provisional* id.  An entry leaves when its walk completes or,
  /// if the walk was lost, at its retire_at.
  std::map<ConnectionId, ReleaseWalk> releasing_;
  OutcomeWindow outcomes_;
  /// Latest finished MODIFY outcome per stable connection id.
  ModifyOutcomeWindow modify_outcomes_;
  std::deque<SignalingMessage> trace_;  ///< at most kTraceWindow, FIFO
  Counters counters_;
};

}  // namespace rtcac
