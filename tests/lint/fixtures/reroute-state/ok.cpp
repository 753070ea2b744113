// lint-fixture-dest: src/net/reroute.cpp
//
// reroute-state negative fixture: the same mutations are fine on the
// handler paths (on_* / attempt_* / advance_to / quiesce), and reads of
// the survivability state are fine anywhere.

#include "net/reroute.h"

namespace rtcac {

void RerouteCoordinator::on_component_event(const ComponentEvent& event) {
  down_nodes_.insert(event.component);
  ++stats_.failure_events;
}

void RerouteCoordinator::attempt_due(Tick now) {
  pending_.erase(pending_.begin());
  if (!decisions_.empty()) decisions_.pop_front();
  decisions_.push_back({now, 0, RerouteDecision::Outcome::kDegraded, {}, {}});
  degraded_.entries.push_back({});
  stats_.total_rescue_latency += now;
}

void RerouteCoordinator::advance_to(Tick now) {
  if (!pending_.empty()) attempt_due(now);
}

void RerouteCoordinator::quiesce() {
  down_links_.clear();
}

std::size_t RerouteCoordinator::pending_count() const {
  return pending_.size();
}

bool RerouteCoordinator::is_down(LinkId link) const {
  return down_links_.contains(link) && !decisions_.empty();
}

}  // namespace rtcac
