#include "net/connection_manager.h"

#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "util/contract.h"
#include "util/log.h"

namespace rtcac {

namespace {
constexpr std::size_t kNoCac = std::numeric_limits<std::size_t>::max();
}

const char* to_string(TeardownReason reason) noexcept {
  switch (reason) {
    case TeardownReason::kLocal:
      return "local";
    case TeardownReason::kRelease:
      return "release";
    case TeardownReason::kFailure:
      return "failure";
    case TeardownReason::kRerouted:
      return "rerouted";
  }
  return "?";
}

ConnectionManager::ConnectionManager(const Topology& topology,
                                     const Params& params)
    : ConnectionManager(topology, params, BitstreamCacPolicy::instance()) {}

ConnectionManager::ConnectionManager(const Topology& topology,
                                     const Params& params,
                                     const CacPolicy& policy)
    : topology_(topology),
      params_(params),
      evaluator_(PathEvaluator::Params{params.priorities, params.cdv_policy,
                                       params.guarantee}),
      policy_name_(policy.name()) {
  RTCAC_REQUIRE(params_.priorities >= 1,
                "ConnectionManager: priorities must be >= 1");
  cac_index_.assign(topology_.node_count(), kNoCac);
  for (const NodeInfo& n : topology_.nodes()) {
    if (n.kind != NodeKind::kSwitch) continue;
    PointConfig cfg;
    cfg.in_ports = topology_.in_links(n.id).size() + 1;  // + local port
    cfg.out_ports = topology_.out_links(n.id).size();
    cfg.priorities = params_.priorities;
    cfg.advertised_bound = params_.advertised_bound;
    cfg.coalesce_budget = params_.coalesce_budget;
    if (cfg.out_ports == 0) continue;  // sink-only switch: nothing to admit
    cac_index_[n.id] = cacs_.size();
    cacs_.push_back(policy.make_point(cfg));
  }
}

PolicyCac& ConnectionManager::policy_point(NodeId node) {
  RTCAC_REQUIRE(node < cac_index_.size() && cac_index_[node] != kNoCac,
                "ConnectionManager: node has no CAC state (terminal or sink)");
  return *cacs_[cac_index_[node]];
}

const PolicyCac& ConnectionManager::policy_point(NodeId node) const {
  RTCAC_REQUIRE(node < cac_index_.size() && cac_index_[node] != kNoCac,
                "ConnectionManager: node has no CAC state (terminal or sink)");
  return *cacs_[cac_index_[node]];
}

SwitchCac& ConnectionManager::switch_cac(NodeId node) {
  SwitchCac* cac = policy_point(node).bitstream();
  RTCAC_REQUIRE(cac != nullptr,
                "ConnectionManager: switch_cac requires the bit-stream "
                "policy");
  return *cac;
}

const SwitchCac& ConnectionManager::switch_cac(NodeId node) const {
  const SwitchCac* cac = policy_point(node).bitstream();
  RTCAC_REQUIRE(cac != nullptr,
                "ConnectionManager: switch_cac requires the bit-stream "
                "policy");
  return *cac;
}

std::vector<HopRef> ConnectionManager::queueing_points(
    const Route& route) const {
  const std::vector<NodeId> nodes = topology_.route_nodes(route);
  std::vector<HopRef> hops;
  hops.reserve(route.size());
  for (std::size_t k = 0; k < route.size(); ++k) {
    const NodeId from = nodes[k];
    if (topology_.node(from).kind != NodeKind::kSwitch) {
      continue;  // terminals are rate-controlled, not queueing points
    }
    HopRef hop;
    hop.node = from;
    hop.link = route[k];
    hop.out_port = topology_.out_port(route[k]);
    hop.in_port = (k == 0) ? topology_.local_in_port(from)
                           : topology_.in_port(route[k - 1]);
    hops.push_back(hop);
  }
  return hops;
}

std::vector<PathEvaluator::Hop> ConnectionManager::eval_hops(
    std::span<const HopRef> hops) const {
  std::vector<PathEvaluator::Hop> views;
  views.reserve(hops.size());
  for (const HopRef& hop : hops) {
    PathEvaluator::Hop view;
    // The evaluator only mutates a hop through commit_hop(); the const
    // driver paths (check, arrival_at_hop) never call it.
    view.cac = const_cast<PolicyCac*>(&policy_point(hop.node));
    view.in_port = hop.in_port;
    view.out_port = hop.out_port;
    view.name = topology_.node(hop.node).name;
    views.push_back(view);
  }
  return views;
}

BitStream ConnectionManager::arrival_at_hop(const TrafficDescriptor& traffic,
                                            std::span<const HopRef> hops,
                                            std::size_t hop_index,
                                            Priority priority) const {
  RTCAC_REQUIRE(hop_index <= hops.size(),
                "arrival_at_hop: hop index out of range");
  const std::vector<PathEvaluator::Hop> views = eval_hops(hops);
  return PathEvaluator::bitstream_arrival(
      traffic, evaluator_.cdv_before(views, hop_index, priority));
}

namespace {

/// Applies a PathEvaluator decision to the engine-facing SetupResult.
void apply_decision(ConnectionManager::SetupResult& result,
                    const PathEvaluator::Decision& decision,
                    std::span<const HopRef> hops) {
  result.reject = decision.reject;
  result.reason = decision.reject.detail;
  if (decision.reject.code == RejectCode::kAdmission &&
      decision.reject.hop < hops.size()) {
    result.rejecting_node = hops[decision.reject.hop].node;
  }
  result.hop_bounds = decision.hop_bounds;
  result.e2e_bound_at_setup = decision.e2e_bound;
  result.e2e_advertised = decision.e2e_advertised;
  result.accepted = decision.admitted;
}

}  // namespace

ConnectionManager::SetupResult ConnectionManager::setup(
    const QosRequest& request, const Route& route) {
  SetupResult result;
  request.traffic.validate();
  // Priority gate first, as the historical walk did: an out-of-range
  // priority rejects even when the route itself is malformed.
  if (!evaluator_.priority_valid(request.priority)) {
    result.reject = PathEvaluator::priority_rejection();
    result.reason = result.reject.detail;
    return result;
  }
  const std::vector<HopRef> hops = queueing_points(route);
  const std::vector<PathEvaluator::Hop> views = eval_hops(hops);

  // Fresh admission is the acquire-only DeltaTransaction: the shared
  // walk evaluates every hop against the current state and only then
  // commits.  Decision-identical to the historical interleaved
  // check/add walk: the hops reserve on distinct switches, so no hop's
  // check could ever see another hop's commit of the same connection.
  PathEvaluator::DeltaTransaction txn;
  txn.acquire = views;
  txn.id = next_id_;
  txn.request = &request;
  txn.lease_expiry = SwitchCac::kPermanentLease;
  const PathEvaluator::Decision decision = evaluator_.execute(txn);
  apply_decision(result, decision, hops);
  if (!result.accepted) {
    RTCAC_DEBUG << "setup failed: " << result.reason;
    return result;
  }

  result.id = next_id_;
  next_id_++;
  records_.emplace(result.id, ConnectionRecord{request, route, hops});
  return result;
}

ConnectionManager::SetupResult ConnectionManager::check(
    const QosRequest& request, const Route& route) const {
  SetupResult result;
  request.traffic.validate();
  if (!evaluator_.priority_valid(request.priority)) {
    result.reject = PathEvaluator::priority_rejection();
    result.reason = result.reject.detail;
    return result;
  }
  const std::vector<HopRef> hops = queueing_points(route);
  const std::vector<PathEvaluator::Hop> views = eval_hops(hops);
  apply_decision(result, evaluator_.evaluate(views, request), hops);
  return result;
}

ConnectionManager::SetupResult ConnectionManager::check_reroute(
    ConnectionId id, const Route& new_route) const {
  const auto it = records_.find(id);
  RTCAC_REQUIRE(it != records_.end(),
                "ConnectionManager: check_reroute of unknown connection");
  // The old reservations are still part of every switch's load, so this
  // plain check is the combined old+new validation.
  return check(it->second.request, new_route);
}

ConnectionManager::SetupResult ConnectionManager::rehome(
    ConnectionId id, const Route& new_route) {
  const auto it = records_.find(id);
  RTCAC_REQUIRE(it != records_.end(),
                "ConnectionManager: rehome of unknown connection");
  const QosRequest& request = it->second.request;

  SetupResult result;
  const std::vector<HopRef> new_hops = queueing_points(new_route);
  const std::vector<PathEvaluator::Hop> new_views = eval_hops(new_hops);
  const std::vector<PathEvaluator::Hop> old_views = eval_hops(it->second.hops);

  // The both-sided DeltaTransaction: admit the replacement while the old
  // path is still reserved, release the old path, rebind the new
  // reservations onto the stable id.  The provisional id keeps shared
  // queueing points collision-free while both incarnations coexist.
  const ConnectionId provisional = next_id_++;
  PathEvaluator::DeltaTransaction txn;
  txn.release = old_views;
  txn.acquire = new_views;
  txn.id = id;
  txn.provisional = provisional;
  txn.request = &request;
  txn.lease_expiry = SwitchCac::kPermanentLease;
  const PathEvaluator::Decision decision = evaluator_.execute(txn);
  apply_decision(result, decision, new_hops);
  if (!result.accepted) {
    RTCAC_DEBUG << "rehome " << id << " failed: " << result.reason;
    return result;
  }

  ++teardowns_[TeardownReason::kRerouted];
  it->second.route = new_route;
  it->second.hops = new_hops;
  result.id = id;
  return result;
}

ConnectionManager::SetupResult ConnectionManager::renegotiate(
    ConnectionId id, const QosRequest& new_request) {
  const auto it = records_.find(id);
  RTCAC_REQUIRE(it != records_.end(),
                "ConnectionManager: renegotiate of unknown connection");
  new_request.traffic.validate();

  SetupResult result;
  const std::vector<PathEvaluator::Hop> views = eval_hops(it->second.hops);

  // Renegotiation is the both-sided DeltaTransaction with release ==
  // acquire: the new descriptor is validated over the same route while
  // the old reservations are still part of every queueing point's load,
  // so the verdict covers the combined old+new state and the old
  // descriptor stays committed until acceptance.
  const ConnectionId provisional = next_id_++;
  PathEvaluator::DeltaTransaction txn;
  txn.release = views;
  txn.acquire = views;
  txn.id = id;
  txn.provisional = provisional;
  txn.request = &new_request;
  txn.lease_expiry = SwitchCac::kPermanentLease;
  const PathEvaluator::Decision decision = evaluator_.execute(txn);
  apply_decision(result, decision, it->second.hops);
  if (!result.accepted) {
    RTCAC_DEBUG << "renegotiate " << id << " failed: " << result.reason;
    return result;
  }

  it->second.request = new_request;
  result.id = id;
  return result;
}

ConnectionManager::SetupResult ConnectionManager::check_renegotiate(
    ConnectionId id, const QosRequest& new_request) const {
  const auto it = records_.find(id);
  RTCAC_REQUIRE(it != records_.end(),
                "ConnectionManager: check_renegotiate of unknown connection");
  new_request.traffic.validate();
  // The old reservations are still part of every switch's load, so this
  // plain check over the current hops is the release-then-readmit-
  // under-combined-load oracle.
  SetupResult result;
  if (!evaluator_.priority_valid(new_request.priority)) {
    result.reject = PathEvaluator::priority_rejection();
    result.reason = result.reject.detail;
    return result;
  }
  const std::vector<PathEvaluator::Hop> views = eval_hops(it->second.hops);
  apply_decision(result, evaluator_.evaluate(views, new_request),
                 it->second.hops);
  return result;
}

void ConnectionManager::adopt(ConnectionId id, ConnectionRecord record) {
  RTCAC_REQUIRE(!records_.contains(id),
                "ConnectionManager: duplicate adopted id");
  for (const HopRef& hop : record.hops) {
    PolicyCac& cac = policy_point(hop.node);
    RTCAC_ASSERT(cac.contains(id),
                 "ConnectionManager: adopted connection " +
                     std::to_string(id) + " holds no reservation at " +
                     topology_.node(hop.node).name);
    // CONNECTED confirmed the route end to end; the reservations stop
    // being provisional and outlive any setup lease.
    cac.make_permanent(id);
  }
  records_.emplace(id, std::move(record));
}

void ConnectionManager::complete_modify(ConnectionId id,
                                        ConnectionId provisional,
                                        const QosRequest& new_request,
                                        std::span<const std::any> arrivals) {
  const auto it = records_.find(id);
  RTCAC_REQUIRE(it != records_.end(),
                "ConnectionManager: complete_modify of unknown connection");
  const std::vector<PathEvaluator::Hop> views = eval_hops(it->second.hops);
  // The acquire side was already committed hop by hop under the
  // provisional id by the MODIFY walk; run the DeltaTransaction epilogue
  // (release old, rebind provisional onto the stable id).  MODIFIED
  // confirmed the swap end to end, so the rebind commits every hop under
  // the permanent lease, as CONNECTED does for a setup.
  PathEvaluator::finalize_delta(views, views, id, provisional,
                                new_request.priority, arrivals,
                                SwitchCac::kPermanentLease);
  it->second.request = new_request;
}

bool ConnectionManager::teardown(ConnectionId id) {
  return teardown(id, TeardownReason::kLocal);
}

bool ConnectionManager::teardown(ConnectionId id, TeardownReason reason) {
  const auto it = records_.find(id);
  if (it == records_.end()) return false;
  // Teardown is the release-only DeltaTransaction.
  const std::vector<PathEvaluator::Hop> views = eval_hops(it->second.hops);
  PathEvaluator::DeltaTransaction txn;
  txn.release = views;
  txn.id = id;
  evaluator_.commit_delta(txn, {});
  records_.erase(it);
  ++teardowns_[reason];
  return true;
}

std::size_t ConnectionManager::teardowns(TeardownReason reason) const {
  const auto it = teardowns_.find(reason);
  return it == teardowns_.end() ? 0 : it->second;
}

ConnectionManager::ReclaimResult ConnectionManager::reclaim(double now) {
  ReclaimResult result;
  std::set<ConnectionId> orphans;
  for (const auto& cac : cacs_) {
    for (const ConnectionId id : cac->reclaim(now)) {
      // Adopted connections are permanent; an expired lease can only
      // belong to a setup attempt that never completed.
      RTCAC_ASSERT(!records_.contains(id),
                   "ConnectionManager: reclaimed a reservation of adopted "
                   "connection " + std::to_string(id));
      ++result.reservations_reclaimed;
      orphans.insert(id);
    }
  }
  result.orphans.assign(orphans.begin(), orphans.end());
  orphans_reclaimed_ += result.orphans.size();
  return result;
}

std::optional<double> ConnectionManager::current_e2e_bound(
    ConnectionId id) const {
  const auto it = records_.find(id);
  if (it == records_.end()) return std::nullopt;
  double total = 0;
  for (const HopRef& hop : it->second.hops) {
    const auto bound = policy_point(hop.node).computed_bound(
        hop.out_port, it->second.request.priority);
    if (!bound.has_value()) return std::nullopt;
    total += *bound;
  }
  return total;
}

}  // namespace rtcac
