// rtcac/net/fault_injector.h
//
// Deterministic, seeded fault model for the signaling plane.  The paper's
// setup procedure (Section 4.1) assumes lossless in-order delivery and
// non-failing components; this injector supplies the adversary the
// fault-tolerant engine is tested against:
//
//   * per-message faults — drop, duplicate, delay, reorder — drawn from a
//     seeded xoshiro stream, so a failure trace is reproducible from its
//     seed alone;
//   * scripted faults — "drop the 2nd REJECT" — for the targeted cascade
//     regressions (a lost REJECT, a lost CONNECTED, a duplicate SETUP
//     arriving after the reject);
//   * component failures — links and switches taken down either manually
//     or over scheduled tick windows.  A message is lost when, at its
//     delivery instant, the node it addresses or the link carrying it is
//     down.
//
// The injector only *classifies*; the SignalingEngine applies verdicts to
// its timed queue.  All state, including the RNG, lives here so two
// engines with equal seeds and schedules replay identical fault traces.
//
// Component-state *observers* (docs/FAULT_TOLERANCE.md, "Survivability"):
// subscribers receive a ComponentEvent whenever a node or link changes
// effective up/down state — immediately for manual fail_*/recover_*
// calls, and at the boundary ticks of scheduled [from, to) outage
// windows when the owner drives advance_to(now).  Events report
// *effective* transitions: overlapping windows and manual failures are
// OR-ed together, so a component already down fires nothing when a
// second cause appears and recovers only when the last cause clears.
// Delivery order is deterministic: ascending (tick, kind, id), and
// within one transition subscribers fire in subscription order — the
// RerouteCoordinator (net/reroute.h) relies on this for replayable
// mass-rerouting decisions.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "net/signaling_message.h"
#include "util/xorshift.h"

namespace rtcac {

/// Probabilities are per message; draws are independent.
struct FaultProfile {
  double drop_probability = 0;
  double duplicate_probability = 0;
  double delay_probability = 0;
  /// Extra transit ticks a delayed message suffers, uniform in
  /// [1, max_delay].
  Tick max_delay = 8;
  double reorder_probability = 0;
  /// Forward jitter of a reordered message, uniform in [1, max_jitter] —
  /// enough to swap it past its neighbors in the timed queue.
  Tick max_jitter = 2;
};

/// Fate of one message at send time.
struct FaultVerdict {
  bool drop = false;
  bool duplicate = false;
  Tick extra_delay = 0;      ///< added to the original copy's transit
  Tick duplicate_delay = 0;  ///< extra transit of the duplicate copy
};

struct FaultCounters {
  std::size_t messages_seen = 0;
  std::size_t dropped = 0;
  std::size_t duplicated = 0;
  std::size_t delayed = 0;
  std::size_t reordered = 0;
  /// Messages lost because their node or link was down at delivery.
  std::size_t failed_component_losses = 0;
};

/// Which kind of component a ComponentEvent is about.
enum class ComponentKind { kNode, kLink };

[[nodiscard]] const char* to_string(ComponentKind kind) noexcept;

/// One effective up/down transition of a node or link, as delivered to
/// component observers.
struct ComponentEvent {
  ComponentKind kind = ComponentKind::kNode;
  /// NodeId or LinkId, per `kind`.
  std::uint32_t component = 0;
  /// New effective state: false = just failed, true = just recovered.
  bool up = false;
  /// Tick of the transition: the boundary tick for scheduled outages,
  /// the injector's advance cursor for manual calls.
  Tick at = 0;
};

/// Observer callback; invoked synchronously from fail_*/recover_*/
/// advance_to.  Observers may mutate admission state (that is the point)
/// but must not re-enter the injector's mutators.
using ComponentObserver = std::function<void(const ComponentEvent&)>;

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed, FaultProfile profile = {});

  /// Classifies a message about to be sent; updates counters.  Scripted
  /// faults take precedence over probabilistic draws (a scripted drop
  /// wins over a scripted duplicate).
  [[nodiscard]] FaultVerdict verdict(const SignalingMessage& m);

  /// Scripts the nth (1-based) message of `type` to be dropped or
  /// duplicated, counting from the injector's construction.
  void drop_nth(SignalingMessageType type, std::size_t nth);
  void duplicate_nth(SignalingMessageType type, std::size_t nth);

  /// Manual component state; failures persist until recovered.  Fires
  /// observers immediately when the effective state changes.
  void fail_node(NodeId node);
  void recover_node(NodeId node);
  void fail_link(LinkId link);
  void recover_link(LinkId link);

  /// Scheduled outage over the half-open tick window [from, to).
  /// Observers learn about its boundaries when advance_to crosses them.
  void schedule_node_outage(NodeId node, Tick from, Tick to);
  void schedule_link_outage(LinkId link, Tick from, Tick to);

  /// Registers an observer for effective component transitions; returns a
  /// token for unsubscribe().  Observers fire in subscription order.
  std::size_t subscribe(ComponentObserver observer);
  void unsubscribe(std::size_t token);

  /// Moves the observer cursor forward to `now` (monotone), firing, in
  /// ascending (tick, kind, id) order, one event per effective up/down
  /// transition a pending scheduled outage boundary at or before `now`
  /// causes.  Half-open windows mean a component is down *at* `from` and
  /// up again *at* `to`.  A window scheduled behind the cursor takes
  /// effect at the cursor, never retroactively.  Without observers this
  /// is a cheap cursor bump.
  void advance_to(Tick now);

  /// Earliest unprocessed scheduled boundary, if any — what the next
  /// advance_to would act on.  Drivers (RerouteCoordinator) use it to
  /// interleave outage boundaries with their own timers in tick order.
  [[nodiscard]] std::optional<Tick> next_scheduled_change() const;

  /// The observer cursor: everything scheduled up to here has fired.
  [[nodiscard]] Tick cursor() const noexcept { return cursor_; }

  [[nodiscard]] bool node_up(NodeId node, Tick now) const;
  [[nodiscard]] bool link_up(LinkId link, Tick now) const;

  /// True iff `m` can be delivered at `now`: the addressed node and the
  /// carrying link (if any) are up.  Counts a component loss when not.
  [[nodiscard]] bool deliverable(const SignalingMessage& m, Tick now);

  [[nodiscard]] const FaultCounters& counters() const noexcept {
    return counters_;
  }

  /// The longest extra transit verdict() can give one copy of a message:
  /// a delay, a reorder jitter or a duplicate's lag.  A message copy is
  /// delivered or lost within its base transit plus this.
  [[nodiscard]] Tick max_extra_transit() const noexcept {
    return std::max(profile_.max_delay, profile_.max_jitter);
  }

 private:
  struct Outage {
    Tick from = 0;
    Tick to = 0;
  };
  [[nodiscard]] static bool in_outage(const std::vector<Outage>& outages,
                                      Tick now) noexcept;

  /// Recomputes the component's effective state at `at` and notifies
  /// observers iff it differs from the last state they saw.
  void notify(ComponentKind kind, std::uint32_t component, Tick at);

  Xorshift rng_;
  FaultProfile profile_;
  std::map<SignalingMessageType, std::set<std::size_t>> scripted_drops_;
  std::map<SignalingMessageType, std::set<std::size_t>> scripted_dups_;
  std::map<SignalingMessageType, std::size_t> seen_;
  std::set<NodeId> down_nodes_;
  std::set<LinkId> down_links_;
  std::map<NodeId, std::vector<Outage>> node_outages_;
  std::map<LinkId, std::vector<Outage>> link_outages_;
  FaultCounters counters_;

  // Observer plumbing: scheduled boundaries not yet swept by advance_to
  // (each outage contributes its `from` and `to` ticks; a set both
  // dedupes shared boundaries and yields the canonical sweep order) and
  // the last effective state each component was announced with.
  std::vector<std::pair<std::size_t, ComponentObserver>> observers_;
  std::size_t next_observer_token_ = 1;
  std::set<std::tuple<Tick, ComponentKind, std::uint32_t>> boundaries_;
  std::map<std::pair<ComponentKind, std::uint32_t>, bool> announced_;
  Tick cursor_ = 0;
};

}  // namespace rtcac
