// rtcac/net/reroute.cpp

#include "net/reroute.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "net/routing.h"
#include "util/contract.h"
#include "util/log.h"

namespace rtcac {

const char* to_string(RerouteDecision::Outcome outcome) noexcept {
  switch (outcome) {
    case RerouteDecision::Outcome::kRehomed:
      return "rehomed";
    case RerouteDecision::Outcome::kKeptOriginal:
      return "kept-original";
    case RerouteDecision::Outcome::kRetryScheduled:
      return "retry-scheduled";
    case RerouteDecision::Outcome::kDegraded:
      return "degraded";
  }
  return "?";
}

std::string DegradationReport::to_string() const {
  std::ostringstream out;
  out << "degraded connections: " << entries.size() << "\n";
  for (const DegradationEntry& e : entries) {
    out << "  connection " << e.id << " (priority " << e.priority
        << "): failed at tick " << e.failed_at << ", gave up at tick "
        << e.gave_up_at << " after " << e.attempts << " attempt"
        << (e.attempts == 1 ? "" : "s") << " [" << rtcac::to_string(e.reason.code)
        << "] " << e.reason.detail << "\n";
  }
  return out.str();
}

RerouteCoordinator::RerouteCoordinator(ConnectionManager& manager,
                                       FaultInjector& faults)
    : RerouteCoordinator(manager, faults, Params{}) {}

RerouteCoordinator::RerouteCoordinator(ConnectionManager& manager,
                                       FaultInjector& faults, Params params,
                                       LabelManager* labels)
    : manager_(manager), faults_(faults), params_(params), labels_(labels) {
  RTCAC_REQUIRE(params_.max_attempts >= 1,
                "RerouteCoordinator: max_attempts must be >= 1");
  RTCAC_REQUIRE(params_.retry_backoff >= 1,
                "RerouteCoordinator: retry_backoff must be >= 1");
  RTCAC_REQUIRE(params_.backoff_multiplier >= 1,
                "RerouteCoordinator: backoff_multiplier must be >= 1");
  observer_token_ = faults_.subscribe(
      [this](const ComponentEvent& event) { on_component_event(event); });
}

RerouteCoordinator::~RerouteCoordinator() {
  faults_.unsubscribe(observer_token_);
}

void RerouteCoordinator::on_component_event(const ComponentEvent& event) {
  if (event.kind == ComponentKind::kNode) {
    if (event.up) {
      down_nodes_.erase(event.component);
    } else {
      down_nodes_.insert(event.component);
    }
  } else {
    if (event.up) {
      down_links_.erase(event.component);
    } else {
      down_links_.insert(event.component);
    }
  }
  if (event.up) {
    ++stats_.recovery_events;
    on_recovery(event);
  } else {
    ++stats_.failure_events;
    on_failure(event);
  }
}

void RerouteCoordinator::on_failure(const ComponentEvent& event) {
  // Index the live connections against the new down set and open an
  // episode for every stranded one.  A connection already pending keeps
  // its episode (its budget and failure tick describe the ongoing
  // outage, however many components it has grown to span).
  for (const auto& [id, record] : manager_.connections()) {
    if (pending_.contains(id) || !route_broken(record.route)) continue;
    Episode episode;
    episode.priority = record.request.priority;
    episode.failed_at = event.at;
    episode.due = event.at;
    pending_.emplace(id, episode);
    ++stats_.episodes;
  }
  attempt_due(event.at);
}

void RerouteCoordinator::on_recovery(const ComponentEvent& event) {
  // The topology just changed in the pending connections' favor: re-arm
  // every backoff immediately.  The attempt budget is unchanged.
  for (auto& [id, episode] : pending_) {
    episode.due = std::min(episode.due, event.at);
  }
  attempt_due(event.at);
}

void RerouteCoordinator::attempt_due(Tick now) {
  // Priority-ordered requeueing: highest priority (lowest value) first,
  // ids as the deterministic tie-break.  Attempts never reduce another
  // episode's due tick, and a failed attempt backs off to a tick strictly
  // beyond `now` (retry_backoff >= 1), so one pass drains everything due.
  std::vector<std::pair<Priority, ConnectionId>> due;
  for (const auto& [id, episode] : pending_) {
    if (episode.due <= now) due.emplace_back(episode.priority, id);
  }
  std::sort(due.begin(), due.end());
  for (const auto& [priority, id] : due) {
    const auto it = pending_.find(id);
    if (it != pending_.end()) attempt_reroute(it, now);
  }
}

void RerouteCoordinator::attempt_reroute(
    std::map<ConnectionId, Episode>::iterator it, Tick now) {
  const ConnectionId id = it->first;
  Episode& episode = it->second;
  const auto journal = [&](RerouteDecision::Outcome outcome, Route route,
                           RejectReason reason) {
    if (decisions_.size() == kDecisionWindow) decisions_.pop_front();
    decisions_.push_back(
        {now, id, outcome, std::move(route), std::move(reason)});
    ++stats_.decisions;
  };

  const auto& records = manager_.connections();
  const auto record = records.find(id);
  if (record == records.end()) {
    // Torn down externally while queued; nothing left to rescue.
    pending_.erase(it);
    return;
  }

  // The original path may have become whole again (outage window closed
  // before the next attempt came due): the reservations were never
  // released, so the connection simply keeps them.
  if (!route_broken(record->second.route)) {
    journal(RerouteDecision::Outcome::kKeptOriginal, record->second.route,
            {});
    ++stats_.kept_original;
    const Tick latency = now - episode.failed_at;
    stats_.max_rescue_latency = std::max(stats_.max_rescue_latency, latency);
    stats_.total_rescue_latency += latency;
    pending_.erase(it);
    return;
  }

  ++episode.attempts;
  ++stats_.attempts;

  // Alternate path around *everything* currently down, endpoints included.
  const Topology& topology = manager_.topology();
  const std::vector<NodeId> nodes = topology.route_nodes(record->second.route);
  const std::vector<NodeId> avoid_nodes(down_nodes_.begin(), down_nodes_.end());
  const std::vector<LinkId> avoid_links(down_links_.begin(), down_links_.end());
  const std::optional<Route> alternate = shortest_route_avoiding(
      topology, nodes.front(), nodes.back(),
      RouteAvoidance{avoid_nodes, avoid_links});

  RejectReason reason;
  if (alternate.has_value()) {
    // Make-before-break: the old reservations stay in place until the
    // replacement is admitted against the combined load.
    const ConnectionManager::SetupResult result =
        manager_.rehome(id, *alternate);
    if (result.accepted) {
      if (labels_ != nullptr && labels_->contains(id)) {
        labels_->release(id);
        labels_->establish(id, *alternate);
      }
      journal(RerouteDecision::Outcome::kRehomed, *alternate, {});
      ++stats_.rehomed;
      const Tick latency = now - episode.failed_at;
      stats_.max_rescue_latency = std::max(stats_.max_rescue_latency, latency);
      stats_.total_rescue_latency += latency;
      pending_.erase(it);
      return;
    }
    reason = result.reject;
  } else {
    reason = PathEvaluator::no_route_rejection();
  }

  if (episode.attempts >= params_.max_attempts) {
    // Budget exhausted: degrade.  The network ended the connection, so
    // the teardown counts as kFailure, and the report keeps it from
    // disappearing silently.
    RTCAC_DEBUG << "degrading connection " << id << ": " << reason.detail;
    journal(RerouteDecision::Outcome::kDegraded, {}, reason);
    if (degraded_.entries.size() == kDegradedWindow) {
      degraded_.entries.pop_front();
    }
    degraded_.entries.push_back({id, episode.priority, reason,
                                 episode.attempts, episode.failed_at, now});
    ++stats_.degraded_by_reason[reason.code];
    if (labels_ != nullptr && labels_->contains(id)) labels_->release(id);
    manager_.teardown(id, TeardownReason::kFailure);
    ++stats_.degraded;
    pending_.erase(it);
    return;
  }

  // Exponential backoff: retry_backoff * multiplier^(attempts-1).
  Tick backoff = params_.retry_backoff;
  for (std::uint32_t a = 1; a < episode.attempts; ++a) {
    backoff *= params_.backoff_multiplier;
  }
  episode.due = now + backoff;
  journal(RerouteDecision::Outcome::kRetryScheduled, {}, std::move(reason));
}

bool RerouteCoordinator::route_broken(const Route& route) const {
  for (const LinkId link : route) {
    if (down_links_.contains(link)) return true;
  }
  if (down_nodes_.empty()) return false;
  for (const NodeId node : manager_.topology().route_nodes(route)) {
    if (down_nodes_.contains(node)) return true;
  }
  return false;
}

std::optional<Tick> RerouteCoordinator::next_retry_due() const {
  std::optional<Tick> due;
  for (const auto& [id, episode] : pending_) {
    if (!due.has_value() || episode.due < *due) due = episode.due;
  }
  return due;
}

std::optional<Tick> RerouteCoordinator::next_wakeup() const {
  const std::optional<Tick> boundary = faults_.next_scheduled_change();
  const std::optional<Tick> retry = next_retry_due();
  if (!boundary.has_value()) return retry;
  if (!retry.has_value()) return boundary;
  return std::min(*boundary, *retry);
}

void RerouteCoordinator::advance_to(Tick now) {
  // Interleave scheduled fault boundaries with due retries in tick order,
  // boundaries first on a tie, so an attempt at tick t always sees the
  // component state of tick t.  Each step either consumes a boundary or
  // pushes every drained retry strictly past its tick, so the loop makes
  // progress.
  for (;;) {
    const std::optional<Tick> boundary = faults_.next_scheduled_change();
    const std::optional<Tick> retry = next_retry_due();
    const bool boundary_due = boundary.has_value() && *boundary <= now;
    const bool retry_due = retry.has_value() && *retry <= now;
    if (boundary_due && (!retry_due || *boundary <= *retry)) {
      faults_.advance_to(*boundary);
    } else if (retry_due) {
      attempt_due(*retry);
    } else {
      break;
    }
  }
  faults_.advance_to(now);
}

void RerouteCoordinator::quiesce() {
  // Run the retry queue dry without advancing past it: every episode has
  // a bounded attempt budget, so this terminates.  Scheduled outages
  // beyond the last retry are left for the driver.
  while (const std::optional<Tick> due = next_retry_due()) {
    advance_to(std::max(*due, faults_.cursor()));
  }
}

}  // namespace rtcac
