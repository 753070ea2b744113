// lint-fixture-dest: src/net/reroute.cpp
//
// reroute-state positive fixture: survivability state mutated from
// RerouteCoordinator members that are not event/retry handlers.

#include "net/reroute.h"

namespace rtcac {

void RerouteCoordinator::mark_down(LinkId link) {
  down_links_.insert(link);  // expect: reroute-state
}

std::size_t RerouteCoordinator::drop(ConnectionId id) {
  return pending_.erase(id);  // expect: reroute-state
}

void RerouteCoordinator::journal(const RerouteDecision& decision) {
  decisions_.push_back(decision);  // expect: reroute-state
  degraded_.entries.push_back({});  // expect: reroute-state
}

void RerouteCoordinator::trim() {
  decisions_.pop_front();  // expect: reroute-state
  degraded_.entries.pop_front();  // expect: reroute-state
}

void RerouteCoordinator::bump() {
  ++stats_.episodes;  // expect: reroute-state
  stats_.max_rescue_latency = 0;  // expect: reroute-state
}

}  // namespace rtcac
