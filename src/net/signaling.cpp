#include "net/signaling.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/log.h"

namespace rtcac {

const char* to_string(SignalingMessageType type) noexcept {
  switch (type) {
    case SignalingMessageType::kSetup:
      return "SETUP";
    case SignalingMessageType::kReject:
      return "REJECT";
    case SignalingMessageType::kConnected:
      return "CONNECTED";
    case SignalingMessageType::kRelease:
      return "RELEASE";
    case SignalingMessageType::kModify:
      return "MODIFY";
    case SignalingMessageType::kModifyReject:
      return "MODIFY-REJECT";
    case SignalingMessageType::kModified:
      return "MODIFIED";
  }
  return "?";
}

std::string to_string(const SignalingMessage& m) {
  std::ostringstream os;
  os << to_string(m.type) << " conn=" << m.id << " at=" << m.at
     << " hop=" << m.hop_index;
  if (m.attempt > 0) os << " attempt=" << m.attempt;
  if (!m.reject.detail.empty()) os << " (" << m.reject.detail << ")";
  return os.str();
}

SignalingEngine::SignalingEngine(ConnectionManager& manager)
    : SignalingEngine(manager, Timers{}, nullptr) {}

SignalingEngine::SignalingEngine(ConnectionManager& manager, Timers timers,
                                 FaultInjector* faults)
    : manager_(manager), timers_(timers), faults_(faults) {
  RTCAC_REQUIRE(timers_.hop_latency >= 1 && timers_.setup_rto >= 1 &&
                    timers_.backoff >= 1 && timers_.lease >= 1,
                "SignalingEngine: timer parameters must be >= 1");
}

ConnectionId SignalingEngine::initiate(const QosRequest& request,
                                       const Route& route) {
  // Validate the complete request before allocating a connection id: a
  // malformed route or out-of-range priority must burn no id and leave no
  // in-flight residue.
  request.traffic.validate();
  RTCAC_REQUIRE(request.priority < manager_.params().priorities,
                "SignalingEngine: request priority out of range");
  const std::vector<NodeId> nodes = manager_.topology().route_nodes(route);

  InFlight flight;
  flight.request = request;
  flight.route = route;
  flight.hops = manager_.queueing_points(route);
  flight.eval_hops = manager_.eval_hops(flight.hops);
  flight.hop_states.assign(flight.hops.size(), HopState{});
  flight.rto = timers_.setup_rto;
  flight.source = nodes.front();
  flight.destination = nodes.back();

  const ConnectionId id = manager_.allocate_id();
  const auto [it, inserted] = in_flight_.emplace(id, std::move(flight));
  RTCAC_ASSERT(inserted, "SignalingEngine: in-flight id collision");
  send_setup(id, it->second);
  arm_setup_timer(id, it->second);
  return id;
}

void SignalingEngine::send_setup(ConnectionId id, const InFlight& flight) {
  SignalingMessage m;
  m.type = SignalingMessageType::kSetup;
  m.id = id;
  m.at = flight.source;
  m.hop_index = 0;
  m.attempt = flight.attempt;
  m.via = flight.route.front();
  send(std::move(m), timers_.hop_latency);
}

void SignalingEngine::arm_setup_timer(ConnectionId id,
                                      const InFlight& flight) {
  events_.schedule(now() + flight.rto, EventPhase::kTimer,
                   [this, id, attempt = flight.attempt] {
                     on_setup_timer(id, attempt);
                   });
}

void SignalingEngine::send(SignalingMessage m, Tick transit) {
  Tick extra = 0;
  if (faults_ != nullptr) {
    const FaultVerdict v = faults_->verdict(m);
    if (v.drop) {
      ++counters_.lost_to_faults;
      return;
    }
    if (v.duplicate) enqueue(m, now() + transit + v.duplicate_delay);
    extra = v.extra_delay;
  }
  enqueue(std::move(m), now() + transit + extra);
}

void SignalingEngine::enqueue(SignalingMessage m, Tick at) {
  ++pending_messages_;
  events_.schedule(at, EventPhase::kArrival, [this, msg = std::move(m)] {
    --pending_messages_;
    deliver(msg);
  });
}

void SignalingEngine::deliver(const SignalingMessage& m) {
  if (faults_ != nullptr && !faults_->deliverable(m, now())) {
    ++counters_.lost_to_faults;  // destroyed in transit, never processed
    return;
  }
  if (trace_.size() == kTraceWindow) trace_.pop_front();
  trace_.push_back(m);
  ++counters_.messages_processed;
  RTCAC_DEBUG << "signaling: " << to_string(m);
  processed_message_ = true;
  switch (m.type) {
    case SignalingMessageType::kSetup:
      process_setup(m);
      break;
    case SignalingMessageType::kReject:
      process_reject(m);
      break;
    case SignalingMessageType::kConnected:
      process_connected(m);
      break;
    case SignalingMessageType::kRelease:
      process_release(m);
      break;
    case SignalingMessageType::kModify:
      process_modify(m);
      break;
    case SignalingMessageType::kModifyReject:
      process_modify_reject(m);
      break;
    case SignalingMessageType::kModified:
      process_modified(m);
      break;
  }
}

bool SignalingEngine::step() {
  // Absorb non-message events (expired timers, in-transit losses) until a
  // signaling message is actually handled, preserving the historical
  // "one message per step" observability contract.
  while (!events_.empty()) {
    processed_message_ = false;
    events_.run_next();
    if (processed_message_) return true;
  }
  return false;
}

void SignalingEngine::run() {
  while (step()) {
  }
}

void SignalingEngine::process_setup(const SignalingMessage& m) {
  const auto it = in_flight_.find(m.id);
  if (it == in_flight_.end() || m.attempt != it->second.attempt) {
    ++counters_.stale_dropped;  // finished or superseded attempt
    return;
  }
  InFlight& flight = it->second;

  if (m.hop_index >= flight.hops.size()) {
    // SETUP reached the destination: check the end-to-end deadline, then
    // confirm back to the source.
    double bound_sum = 0;
    double advertised_sum = 0;
    for (const HopState& hs : flight.hop_states) {
      bound_sum += hs.bound;
      advertised_sum += hs.advertised;
    }
    // The shared deadline split (core/path_eval.h) under the manager's
    // GuaranteeMode — identical comparison and reason text to the serial
    // walk.
    RejectReason deadline = manager_.evaluator().deadline_rejection(
        flight.hops.size(), bound_sum, advertised_sum,
        flight.request.deadline);
    if (deadline.rejected()) {
      SignalingMessage reject;
      reject.type = SignalingMessageType::kReject;
      reject.id = m.id;
      reject.at = flight.destination;
      reject.hop_index = flight.hops.size();
      reject.attempt = m.attempt;
      reject.origin = flight.destination;
      reject.reject = std::move(deadline);
      if (!flight.route.empty()) reject.via = flight.route.back();
      send(std::move(reject), timers_.hop_latency);
      return;
    }
    SignalingMessage connected;
    connected.type = SignalingMessageType::kConnected;
    connected.id = m.id;
    connected.at = flight.source;
    connected.hop_index = flight.hops.size();
    connected.attempt = m.attempt;
    if (!flight.route.empty()) connected.via = flight.route.front();
    // The confirmation crosses the whole route on its way back.
    send(std::move(connected),
         timers_.hop_latency * static_cast<Tick>(flight.route.size()));
    return;
  }

  const HopRef& hop = flight.hops[m.hop_index];
  PolicyCac& cac = manager_.policy_point(hop.node);
  HopState& state = flight.hop_states[m.hop_index];
  const double lease_until = static_cast<double>(now() + timers_.lease);

  if (cac.contains(m.id)) {
    // A duplicate or retransmitted SETUP must not double-commit: renew
    // the lease and re-own the reservation for the current attempt.
    cac.renew_lease(m.id, lease_until);
    state.committed = true;
  } else {
    // The shared per-hop trial (arrival under accumulated CDV + policy
    // check); commit reuses the prepared arrival.
    const PathEvaluator& evaluator = manager_.evaluator();
    PathEvaluator::HopEvaluation eval =
        evaluator.evaluate_hop(flight.eval_hops, m.hop_index, flight.request);
    if (!eval.verdict.admitted) {
      SignalingMessage reject;
      reject.type = SignalingMessageType::kReject;
      reject.id = m.id;
      reject.at = hop.node;
      reject.hop_index = m.hop_index;
      reject.attempt = m.attempt;
      reject.origin = hop.node;
      reject.reject = PathEvaluator::hop_rejection(
          m.hop_index, manager_.topology().node(hop.node).name,
          eval.verdict.detail);
      if (m.hop_index > 0) {
        reject.via = flight.hops[m.hop_index - 1].link;
      } else if (!flight.route.empty()) {
        reject.via = flight.route.front();
      }
      send(std::move(reject), timers_.hop_latency);
      return;
    }
    evaluator.commit_hop(flight.eval_hops[m.hop_index], m.id,
                         flight.request.priority, eval.arrival, lease_until);
    state.committed = true;
    state.bound = eval.verdict.bound;
    state.advertised = eval.verdict.advertised;
  }

  SignalingMessage forward = m;
  forward.hop_index = m.hop_index + 1;
  forward.at = manager_.topology().link(hop.link).to;
  forward.via = hop.link;
  send(std::move(forward), timers_.hop_latency);
}

void SignalingEngine::process_reject(const SignalingMessage& m) {
  const auto it = in_flight_.find(m.id);
  if (it == in_flight_.end() || m.attempt != it->second.attempt) {
    // A reject of a finished or superseded attempt must not release state
    // the live attempt owns; whatever its epoch committed dies with the
    // hop leases instead.
    ++counters_.stale_dropped;
    return;
  }
  InFlight& flight = it->second;
  if (m.hop_index > 0) {
    // Release the most recent reservation and keep walking upstream.
    const std::size_t k = m.hop_index - 1;
    HopState& state = flight.hop_states[k];
    if (state.committed) {
      // remove() may find nothing if the lease was already reclaimed.
      manager_.policy_point(flight.hops[k].node).remove(m.id);
      state = HopState{};
    }
    SignalingMessage upstream = m;
    upstream.hop_index = k;
    upstream.at = flight.hops[k].node;
    if (k > 0) {
      upstream.via = flight.hops[k - 1].link;
    } else if (!flight.route.empty()) {
      upstream.via = flight.route.front();
    }
    send(std::move(upstream), timers_.hop_latency);
    return;
  }
  SignalingOutcome outcome;
  outcome.connected = false;
  outcome.reject = m.reject;
  if (outcome.reject.code == RejectCode::kNone) {
    outcome.reject.code = RejectCode::kAdmission;  // bare REJECT default
  }
  outcome.reason =
      m.reject.detail.empty() ? "rejected" : m.reject.detail;
  outcome.rejecting_node = m.origin.has_value() ? *m.origin : m.at;
  const RejectCode category = outcome.reject.code;
  process_failure(m.id, flight, std::move(outcome), category);
}

void SignalingEngine::process_connected(const SignalingMessage& m) {
  const auto it = in_flight_.find(m.id);
  if (it == in_flight_.end() || m.attempt != it->second.attempt) {
    ++counters_.stale_dropped;
    return;
  }
  InFlight& flight = it->second;
  // Adopt only if the reservation chain is intact end to end: a crossing
  // duplicate-attempt reject or an aggressive reclaim may have punched a
  // hole.  If so, ignore this confirmation — the retransmission timer
  // drives another round (or times the attempt out).
  for (std::size_t k = 0; k < flight.hops.size(); ++k) {
    if (!flight.hop_states[k].committed ||
        !manager_.policy_point(flight.hops[k].node).contains(m.id)) {
      ++counters_.stale_dropped;
      return;
    }
  }
  SignalingOutcome outcome;
  outcome.connected = true;
  for (const HopState& hs : flight.hop_states) {
    outcome.e2e_bound_at_setup += hs.bound;
    outcome.e2e_advertised += hs.advertised;
  }
  manager_.adopt(m.id, ConnectionManager::ConnectionRecord{
                           flight.request, flight.route, flight.hops});
  ++counters_.setups_finished;
  ++counters_.setups_connected;
  outcomes_.insert_or_assign(m.id, std::move(outcome));
  in_flight_.erase(it);
}

void SignalingEngine::process_release(const SignalingMessage& m) {
  const auto it = releasing_.find(m.id);
  if (it == releasing_.end()) {
    ++counters_.stale_dropped;
    return;
  }
  const std::vector<HopRef>& hops = it->second.hops;
  if (m.hop_index < hops.size()) {
    const HopRef& hop = hops[m.hop_index];
    // The lease may have beaten us to it; remove() tolerates that.
    if (manager_.policy_point(hop.node).remove(m.id)) {
      ++counters_.released_hops;
    }
    if (m.hop_index + 1 < hops.size()) {
      SignalingMessage forward = m;
      forward.hop_index = m.hop_index + 1;
      forward.at = hops[m.hop_index + 1].node;
      forward.via = hop.link;
      send(std::move(forward), timers_.hop_latency);
      return;
    }
  }
  // Walk complete.  An adopted record (application-initiated release)
  // retires through the reason-tagged teardown.
  manager_.teardown(m.id, TeardownReason::kRelease);
  releasing_.erase(it);
}

Tick SignalingEngine::release_horizon(std::size_t hops) const noexcept {
  // A walk sends one message per hop (one even over no hops), each after
  // its predecessor arrived, so the k-th message arrives at most k
  // per-hop transits after the walk started.  Duplicates forward within
  // the same bound.
  const Tick per_hop = timers_.hop_latency +
                       (faults_ != nullptr ? faults_->max_extra_transit() : 0);
  return per_hop * static_cast<Tick>(std::max<std::size_t>(hops, 1));
}

void SignalingEngine::arm_release_timer(ConnectionId id,
                                        const ReleaseWalk& walk) {
  // A timer fires after every message arriving at its tick (EventPhase),
  // so a walk whose last message lands exactly at retire_at completes.
  events_.schedule(walk.retire_at, EventPhase::kTimer,
                   [this, id, retire_at = walk.retire_at] {
                     on_release_timer(id, retire_at);
                   });
}

void SignalingEngine::on_release_timer(ConnectionId id, Tick retire_at) {
  const auto it = releasing_.find(id);
  if (it == releasing_.end() || it->second.retire_at != retire_at) {
    return;  // the walk completed, or a later walk of the id replaced it
  }
  // A message of the walk was lost, and no other can still arrive.  Only
  // the bookkeeping goes: reservations the walk did not reach stay until
  // their lease or a central teardown returns them.
  ++counters_.releases_retired;
  releasing_.erase(it);
}

void SignalingEngine::process_failure(ConnectionId id, InFlight& flight,
                                      SignalingOutcome outcome,
                                      RejectCode category) {
  ++counters_.rejects_by_reason[category];
  ++counters_.setups_finished;
  const bool residue =
      std::any_of(flight.hop_states.begin(), flight.hop_states.end(),
                  [](const HopState& hs) { return hs.committed; });
  if (residue && !releasing_.contains(id)) {
    // Tear down whatever part of the route is still committed.  If the
    // RELEASE walk is itself lost, the hop leases are the backstop.
    const auto walk = releasing_.emplace(
        id, ReleaseWalk{flight.hops,
                        now() + release_horizon(flight.hops.size())});
    arm_release_timer(id, walk.first->second);
    ++counters_.releases_sent;
    SignalingMessage release;
    release.type = SignalingMessageType::kRelease;
    release.id = id;
    release.at = flight.hops.front().node;
    release.hop_index = 0;
    release.attempt = flight.attempt;
    if (!flight.route.empty()) release.via = flight.route.front();
    send(std::move(release), timers_.hop_latency);
  }
  outcomes_.insert_or_assign(id, std::move(outcome));
  in_flight_.erase(id);
}

void SignalingEngine::on_setup_timer(ConnectionId id, std::uint32_t attempt) {
  const auto it = in_flight_.find(id);
  if (it == in_flight_.end() || it->second.attempt != attempt) {
    return;  // attempt resolved or already superseded; timer is stale
  }
  InFlight& flight = it->second;
  if (flight.retries >= timers_.max_retries) {
    ++counters_.timeouts;
    SignalingOutcome outcome;
    outcome.connected = false;
    std::ostringstream os;
    os << "setup timed out after " << flight.retries << " retransmissions";
    outcome.reason = os.str();
    outcome.reject.code = RejectCode::kTimeout;
    outcome.reject.detail = outcome.reason;
    process_failure(id, flight, std::move(outcome), RejectCode::kTimeout);
    return;
  }
  // New attempt epoch: anything still in flight from the old round is
  // stale from here on, so the retry cannot double-commit or be answered
  // by a rejection it already superseded.
  ++flight.retries;
  ++flight.attempt;
  flight.rto *= timers_.backoff;
  ++counters_.retransmits;
  send_setup(id, flight);
  arm_setup_timer(id, flight);
}

// --- in-place renegotiation (MODIFY/MODIFY-REJECT/MODIFIED) -----------------

bool SignalingEngine::modify(ConnectionId id, const QosRequest& new_request) {
  // Validate before allocating the provisional id, exactly as initiate()
  // validates before allocating the connection id.
  new_request.traffic.validate();
  RTCAC_REQUIRE(new_request.priority < manager_.params().priorities,
                "SignalingEngine: modify priority out of range");
  const auto& connections = manager_.connections();
  const auto it = connections.find(id);
  if (it == connections.end() || modifying_.contains(id) ||
      releasing_.contains(id)) {
    return false;
  }
  const std::vector<NodeId> nodes =
      manager_.topology().route_nodes(it->second.route);

  ModifyFlight flight;
  flight.request = new_request;
  flight.provisional = manager_.allocate_id();
  flight.route = it->second.route;
  flight.hops = it->second.hops;
  flight.eval_hops = manager_.eval_hops(flight.hops);
  flight.hop_states.assign(flight.hops.size(), HopState{});
  flight.arrivals.assign(flight.hops.size(), std::any{});
  flight.rto = timers_.setup_rto;
  flight.source = nodes.front();
  flight.destination = nodes.back();

  const auto [mit, inserted] = modifying_.emplace(id, std::move(flight));
  RTCAC_ASSERT(inserted, "SignalingEngine: duplicate in-flight modify");
  ++counters_.modifies_sent;
  send_modify(id, mit->second);
  arm_modify_timer(id, mit->second);
  return true;
}

void SignalingEngine::send_modify(ConnectionId id, const ModifyFlight& flight) {
  SignalingMessage m;
  m.type = SignalingMessageType::kModify;
  m.id = id;
  m.at = flight.source;
  m.hop_index = 0;
  m.attempt = flight.attempt;
  if (!flight.route.empty()) m.via = flight.route.front();
  send(std::move(m), timers_.hop_latency);
}

void SignalingEngine::arm_modify_timer(ConnectionId id,
                                       const ModifyFlight& flight) {
  events_.schedule(now() + flight.rto, EventPhase::kTimer,
                   [this, id, attempt = flight.attempt] {
                     on_modify_timer(id, attempt);
                   });
}

void SignalingEngine::process_modify(const SignalingMessage& m) {
  const auto it = modifying_.find(m.id);
  if (it == modifying_.end() || m.attempt != it->second.attempt) {
    ++counters_.stale_dropped;  // finished or superseded modify
    return;
  }
  ModifyFlight& flight = it->second;

  if (m.hop_index >= flight.hops.size()) {
    // MODIFY reached the destination: the per-hop verdicts covered the
    // combined old+new load; re-run the shared deadline split over the
    // new descriptor's bounds before confirming the swap.
    double bound_sum = 0;
    double advertised_sum = 0;
    for (const HopState& hs : flight.hop_states) {
      bound_sum += hs.bound;
      advertised_sum += hs.advertised;
    }
    RejectReason deadline = manager_.evaluator().deadline_rejection(
        flight.hops.size(), bound_sum, advertised_sum,
        flight.request.deadline);
    if (deadline.rejected()) {
      SignalingMessage reject;
      reject.type = SignalingMessageType::kModifyReject;
      reject.id = m.id;
      reject.at = flight.destination;
      reject.hop_index = flight.hops.size();
      reject.attempt = m.attempt;
      reject.origin = flight.destination;
      reject.reject = std::move(deadline);
      if (!flight.route.empty()) reject.via = flight.route.back();
      send(std::move(reject), timers_.hop_latency);
      return;
    }
    SignalingMessage modified;
    modified.type = SignalingMessageType::kModified;
    modified.id = m.id;
    modified.at = flight.source;
    modified.hop_index = flight.hops.size();
    modified.attempt = m.attempt;
    if (!flight.route.empty()) modified.via = flight.route.front();
    send(std::move(modified),
         timers_.hop_latency * static_cast<Tick>(flight.route.size()));
    return;
  }

  const HopRef& hop = flight.hops[m.hop_index];
  PolicyCac& cac = manager_.policy_point(hop.node);
  HopState& state = flight.hop_states[m.hop_index];
  const double lease_until = static_cast<double>(now() + timers_.lease);

  if (cac.contains(flight.provisional)) {
    // Duplicate or retransmitted MODIFY: renew instead of
    // double-committing, exactly as SETUP does.
    cac.renew_lease(flight.provisional, lease_until);
    state.committed = true;
  } else {
    // The shared per-hop trial of the NEW descriptor.  The connection's
    // old reservation is still part of this point's load, so the verdict
    // covers the combined old+new state (the DeltaTransaction's
    // conservative make-before-break check).
    const PathEvaluator& evaluator = manager_.evaluator();
    PathEvaluator::HopEvaluation eval =
        evaluator.evaluate_hop(flight.eval_hops, m.hop_index, flight.request);
    if (!eval.verdict.admitted) {
      SignalingMessage reject;
      reject.type = SignalingMessageType::kModifyReject;
      reject.id = m.id;
      reject.at = hop.node;
      reject.hop_index = m.hop_index;
      reject.attempt = m.attempt;
      reject.origin = hop.node;
      reject.reject = PathEvaluator::hop_rejection(
          m.hop_index, manager_.topology().node(hop.node).name,
          eval.verdict.detail);
      if (m.hop_index > 0) {
        reject.via = flight.hops[m.hop_index - 1].link;
      } else if (!flight.route.empty()) {
        reject.via = flight.route.front();
      }
      send(std::move(reject), timers_.hop_latency);
      return;
    }
    evaluator.commit_hop(flight.eval_hops[m.hop_index], flight.provisional,
                         flight.request.priority, eval.arrival, lease_until);
    state.committed = true;
    state.bound = eval.verdict.bound;
    state.advertised = eval.verdict.advertised;
    flight.arrivals[m.hop_index] = std::move(eval.arrival);
  }

  SignalingMessage forward = m;
  forward.hop_index = m.hop_index + 1;
  forward.at = manager_.topology().link(hop.link).to;
  forward.via = hop.link;
  send(std::move(forward), timers_.hop_latency);
}

void SignalingEngine::process_modify_reject(const SignalingMessage& m) {
  const auto it = modifying_.find(m.id);
  if (it == modifying_.end() || m.attempt != it->second.attempt) {
    ++counters_.stale_dropped;
    return;
  }
  ModifyFlight& flight = it->second;
  if (m.hop_index > 0) {
    // Release the most recent provisional commit and keep walking
    // upstream.  The old descriptor's reservation is untouched.
    const std::size_t k = m.hop_index - 1;
    HopState& state = flight.hop_states[k];
    if (state.committed) {
      manager_.policy_point(flight.hops[k].node).remove(flight.provisional);
      state = HopState{};
    }
    SignalingMessage upstream = m;
    upstream.hop_index = k;
    upstream.at = flight.hops[k].node;
    if (k > 0) {
      upstream.via = flight.hops[k - 1].link;
    } else if (!flight.route.empty()) {
      upstream.via = flight.route.front();
    }
    send(std::move(upstream), timers_.hop_latency);
    return;
  }
  SignalingOutcome outcome;
  outcome.connected = false;
  outcome.reject = m.reject;
  if (outcome.reject.code == RejectCode::kNone) {
    outcome.reject.code = RejectCode::kAdmission;
  }
  outcome.reason = m.reject.detail.empty() ? "rejected" : m.reject.detail;
  outcome.rejecting_node = m.origin.has_value() ? *m.origin : m.at;
  const RejectCode category = outcome.reject.code;
  process_modify_failure(m.id, flight, std::move(outcome), category);
}

void SignalingEngine::process_modified(const SignalingMessage& m) {
  const auto it = modifying_.find(m.id);
  if (it == modifying_.end() || m.attempt != it->second.attempt) {
    ++counters_.stale_dropped;
    return;
  }
  ModifyFlight& flight = it->second;
  // Swap only if the provisional chain is intact end to end; a hole
  // (crossing stale reject, aggressive reclaim) means this confirmation
  // is unsafe — the retransmission timer drives another round.
  for (std::size_t k = 0; k < flight.hops.size(); ++k) {
    if (!flight.hop_states[k].committed ||
        !manager_.policy_point(flight.hops[k].node)
             .contains(flight.provisional)) {
      ++counters_.stale_dropped;
      return;
    }
  }
  // The base connection must still exist on the same route: a crossing
  // RELEASE (or a rehome) invalidates the swap — roll the provisional
  // commits back instead of leaving mixed reservations.
  const auto& connections = manager_.connections();
  const auto conn = connections.find(m.id);
  const bool route_intact =
      conn != connections.end() && conn->second.route == flight.route;
  if (!route_intact) {
    SignalingOutcome outcome;
    outcome.connected = false;
    outcome.reject.code = RejectCode::kAdmission;
    outcome.reject.detail = "connection changed during modify";
    outcome.reason = outcome.reject.detail;
    process_modify_failure(m.id, flight, std::move(outcome),
                           RejectCode::kAdmission);
    return;
  }
  SignalingOutcome outcome;
  outcome.connected = true;
  for (const HopState& hs : flight.hop_states) {
    outcome.e2e_bound_at_setup += hs.bound;
    outcome.e2e_advertised += hs.advertised;
  }
  // The atomic swap: release the old descriptor, rebind the provisional
  // reservations onto the stable id (the DeltaTransaction epilogue).
  manager_.complete_modify(m.id, flight.provisional, flight.request,
                           flight.arrivals);
  ++counters_.modifies_completed;
  modify_outcomes_.insert_or_assign(m.id, std::move(outcome));
  modifying_.erase(it);
}

void SignalingEngine::process_modify_failure(ConnectionId id,
                                             ModifyFlight& flight,
                                             SignalingOutcome outcome,
                                             RejectCode category) {
  ++counters_.modify_rejects_by_reason[category];
  const bool residue =
      std::any_of(flight.hop_states.begin(), flight.hop_states.end(),
                  [](const HopState& hs) { return hs.committed; });
  if (residue && !releasing_.contains(flight.provisional)) {
    // Roll back the provisional commits with a RELEASE walk keyed by the
    // provisional id; the old descriptor's reservations are untouched.
    // If the walk is itself lost, the provisional leases are the
    // backstop — either way no connection ends with mixed descriptors.
    const auto walk = releasing_.emplace(
        flight.provisional,
        ReleaseWalk{flight.hops,
                    now() + release_horizon(flight.hops.size())});
    arm_release_timer(flight.provisional, walk.first->second);
    ++counters_.releases_sent;
    SignalingMessage release;
    release.type = SignalingMessageType::kRelease;
    release.id = flight.provisional;
    release.at = flight.hops.front().node;
    release.hop_index = 0;
    release.attempt = flight.attempt;
    if (!flight.route.empty()) release.via = flight.route.front();
    send(std::move(release), timers_.hop_latency);
  }
  modify_outcomes_.insert_or_assign(id, std::move(outcome));
  modifying_.erase(id);
}

void SignalingEngine::on_modify_timer(ConnectionId id, std::uint32_t attempt) {
  const auto it = modifying_.find(id);
  if (it == modifying_.end() || it->second.attempt != attempt) {
    return;  // modify resolved or superseded; timer is stale
  }
  ModifyFlight& flight = it->second;
  if (flight.retries >= timers_.max_retries) {
    ++counters_.timeouts;
    SignalingOutcome outcome;
    outcome.connected = false;
    std::ostringstream os;
    os << "modify timed out after " << flight.retries << " retransmissions";
    outcome.reason = os.str();
    outcome.reject.code = RejectCode::kTimeout;
    outcome.reject.detail = outcome.reason;
    process_modify_failure(id, flight, std::move(outcome),
                           RejectCode::kTimeout);
    return;
  }
  ++flight.retries;
  ++flight.attempt;
  flight.rto *= timers_.backoff;
  ++counters_.modify_retransmits;
  send_modify(id, flight);
  arm_modify_timer(id, flight);
}

std::optional<SignalingOutcome> SignalingEngine::modify_outcome(
    ConnectionId id) const {
  const SignalingOutcome* found = modify_outcomes_.find(id);
  if (found == nullptr) return std::nullopt;
  return *found;
}

bool SignalingEngine::release(ConnectionId id) {
  const auto& connections = manager_.connections();
  const auto it = connections.find(id);
  if (it == connections.end() || releasing_.contains(id)) return false;
  const auto walk = releasing_.emplace(
      id, ReleaseWalk{it->second.hops,
                      now() + release_horizon(it->second.hops.size())});
  arm_release_timer(id, walk.first->second);
  ++counters_.releases_sent;
  SignalingMessage release;
  release.type = SignalingMessageType::kRelease;
  release.id = id;
  release.hop_index = 0;
  if (!it->second.hops.empty()) {
    release.at = it->second.hops.front().node;
  }
  if (!it->second.route.empty()) release.via = it->second.route.front();
  send(std::move(release), timers_.hop_latency);
  return true;
}

std::optional<SignalingOutcome> SignalingEngine::outcome(
    ConnectionId id) const {
  const SignalingOutcome* found = outcomes_.find(id);
  if (found == nullptr) return std::nullopt;
  return *found;
}

}  // namespace rtcac
