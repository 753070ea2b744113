// rtcac/net/admission_engine.cpp — see admission_engine.h for the design.

#include "net/admission_engine.h"

#include <algorithm>
#include <limits>
#include <set>
#include <thread>
#include <utility>

#include "util/contract.h"

namespace rtcac {

namespace {

constexpr std::size_t kNoShard = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kNoHop = ConcurrentCac::PathResult::npos;

/// Same per-switch configs, in the same order, as the ConnectionManager
/// constructor builds — shard ids must line up with the serial oracle.
std::vector<PointConfig> shard_configs(const Topology& topology,
                                       const ConnectionManager::Params& params,
                                       std::vector<std::size_t>& index_out) {
  index_out.assign(topology.node_count(), kNoShard);
  std::vector<PointConfig> configs;
  for (const NodeInfo& n : topology.nodes()) {
    if (n.kind != NodeKind::kSwitch) continue;
    PointConfig cfg;
    cfg.in_ports = topology.in_links(n.id).size() + 1;  // + local port
    cfg.out_ports = topology.out_links(n.id).size();
    cfg.priorities = params.priorities;
    cfg.advertised_bound = params.advertised_bound;
    cfg.coalesce_budget = params.coalesce_budget;
    if (cfg.out_ports == 0) continue;  // sink-only switch: nothing to admit
    index_out[n.id] = configs.size();
    configs.push_back(cfg);
  }
  return configs;
}

/// admit_path acceptance hook implementing the end-to-end deadline
/// check over the authoritative (exclusive-lock) hop bounds.
struct DeadlineCtx {
  const PathEvaluator* evaluator;
  double e2e_advertised;
  double deadline;
};

bool deadline_accept(const std::vector<HopVerdict>& hops, void* raw) {
  const auto* ctx = static_cast<const DeadlineCtx*>(raw);
  double computed = 0;
  for (const HopVerdict& hop : hops) computed += hop.bound;
  return ctx->evaluator->deadline_met(computed, ctx->e2e_advertised,
                                      ctx->deadline);
}

/// Installs a canonical rejection into a SetupResult, mirroring the
/// serial manager's handling (reason text = detail; rejecting_node only
/// for per-hop CAC rejections).
void apply_reject(ConnectionManager::SetupResult& result, RejectReason reject,
                  std::span<const HopRef> hops) {
  if (reject.code == RejectCode::kAdmission && reject.hop < hops.size()) {
    result.rejecting_node = hops[reject.hop].node;
  }
  result.reason = reject.detail;
  result.reject = std::move(reject);
}

}  // namespace

AdmissionEngine::AdmissionEngine(const Topology& topology,
                                 const Params& params)
    : AdmissionEngine(topology, params, BitstreamCacPolicy::instance()) {}

AdmissionEngine::AdmissionEngine(const Topology& topology,
                                 const Params& params, const CacPolicy& policy)
    : topology_(topology),
      params_(params),
      evaluator_(PathEvaluator::Params{params.priorities, params.cdv_policy,
                                       params.guarantee}),
      cac_(policy, shard_configs(topology, params, shard_index_)) {
  RTCAC_REQUIRE(params_.priorities >= 1,
                "AdmissionEngine: priorities must be >= 1");
}

std::size_t AdmissionEngine::shard_of(NodeId node) const {
  RTCAC_REQUIRE(node < shard_index_.size() && shard_index_[node] != kNoShard,
                "AdmissionEngine: node has no CAC state (terminal or sink)");
  return shard_index_[node];
}

std::vector<HopRef> AdmissionEngine::queueing_points(const Route& route) const {
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

BitStream AdmissionEngine::arrival_at_hop(const TrafficDescriptor& traffic,
                                          std::span<const HopRef> hops,
                                          std::size_t hop_index,
                                          Priority priority) const {
  RTCAC_REQUIRE(hop_index <= hops.size(),
                "arrival_at_hop: hop index out of range");
  std::vector<double> upstream;
  upstream.reserve(hop_index);
  for (std::size_t h = 0; h < hop_index; ++h) {
    upstream.push_back(
        cac_.advertised(shard_of(hops[h].node), hops[h].out_port, priority));
  }
  return PathEvaluator::bitstream_arrival(traffic,
                                          evaluator_.accumulated_cdv(upstream));
}

AdmissionEngine::PathPlan AdmissionEngine::plan_path(const QosRequest& request,
                                                     const Route& route) const {
  PathPlan plan;
  plan.hops = queueing_points(route);
  plan.specs.reserve(plan.hops.size());
  std::vector<double> upstream;
  upstream.reserve(plan.hops.size());
  for (const HopRef& hop : plan.hops) {
    ConcurrentCac::HopSpec spec;
    spec.shard = shard_of(hop.node);
    spec.in_port = hop.in_port;
    spec.out_port = hop.out_port;
    spec.priority = request.priority;
    // The upstream advertised bounds are fixed, so the prepared arrival
    // (policy-specific Alg. 3.1 distortion) is built once per hop and
    // reused by both admission phases.
    spec.arrival = cac_.prepare(spec.shard, request.traffic,
                                evaluator_.accumulated_cdv(upstream));
    const double adv =
        cac_.advertised(spec.shard, spec.out_port, request.priority);
    plan.e2e_advertised += adv;
    upstream.push_back(adv);
    plan.specs.push_back(std::move(spec));
  }
  return plan;
}

std::size_t AdmissionEngine::speculative_checks(
    const std::vector<ConcurrentCac::HopSpec>& specs,
    std::vector<HopVerdict>& results,
    std::vector<ConcurrentCac::CheckStamp>* stamps) const {
  results.resize(specs.size());
  if (stamps != nullptr) stamps->resize(specs.size());
  // Stop at the first rejection, as the PathEvaluator walk does.
  for (std::size_t h = 0; h < specs.size(); ++h) {
    results[h] = cac_.check_hop(specs[h],
                                stamps != nullptr ? &(*stamps)[h] : nullptr);
    if (!results[h].admitted) return h;
  }
  return kNoHop;
}

AdmissionEngine::SetupResult AdmissionEngine::do_setup(
    const QosRequest& request, const Route& route, double lease_expiry) {
  SetupResult result;
  request.traffic.validate();
  if (!evaluator_.priority_valid(request.priority)) {
    apply_reject(result, PathEvaluator::priority_rejection(), {});
    return result;
  }

  const PathPlan plan = plan_path(request, route);

  // Phase one: speculative checks — lock-free against the published
  // snapshots (or under shared locks).  A rejection here commits nothing.
  std::vector<HopVerdict> speculative;
  std::vector<ConcurrentCac::CheckStamp> stamps;
  const std::size_t rejecting =
      speculative_checks(plan.specs, speculative, &stamps);
  if (rejecting != kNoHop) {
    apply_reject(result,
                 PathEvaluator::hop_rejection(
                     rejecting, topology_.node(plan.hops[rejecting].node).name,
                     speculative[rejecting].detail),
                 plan.hops);
    return result;
  }

  if (plan.specs.empty()) {
    // Routes without queueing points carry a vacuous zero bound, like
    // the serial manager's empty hop walk.
    RejectReason deadline =
        evaluator_.deadline_rejection(0, 0.0, 0.0, request.deadline);
    if (deadline.rejected()) {
      apply_reject(result, std::move(deadline), plan.hops);
      return result;
    }
    const ConnectionId id = next_id_.fetch_add(1, std::memory_order_relaxed);
    result.accepted = true;
    result.id = id;
    const MutexLock lock(records_mutex_);
    records_.emplace(id, ConnectionRecord{request, route, plan.hops});
    return result;
  }

  // Phase two: validate-on-commit under exclusive locks in canonical
  // shard order — hops whose version stamps still match reuse their
  // speculative verdicts, the rest are re-checked.  The id is burned
  // if the validation rejects.
  const ConnectionId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  DeadlineCtx ctx{&evaluator_, plan.e2e_advertised, request.deadline};
  std::vector<ConcurrentCac::SpeculativeHop> witnesses(plan.specs.size());
  for (std::size_t h = 0; h < plan.specs.size(); ++h) {
    witnesses[h] =
        ConcurrentCac::SpeculativeHop{speculative[h], std::move(stamps[h])};
  }
  const ConcurrentCac::PathResult path = cac_.admit_path(
      plan.specs, id, lease_expiry, &deadline_accept, &ctx, witnesses);

  if (!path.admitted) {
    if (path.rejecting_hop != kNoHop) {
      apply_reject(
          result,
          PathEvaluator::hop_rejection(
              path.rejecting_hop,
              topology_.node(plan.hops[path.rejecting_hop].node).name,
              path.hops[path.rejecting_hop].detail),
          plan.hops);
    } else {
      // Every hop admitted; the deadline predicate said no.
      double computed = 0;
      for (const HopVerdict& hop : path.hops) computed += hop.bound;
      apply_reject(result,
                   evaluator_.deadline_rejection(plan.hops.size(), computed,
                                                 plan.e2e_advertised,
                                                 request.deadline),
                   plan.hops);
    }
    return result;
  }

  for (const HopVerdict& hop : path.hops) {
    result.hop_bounds.push_back(hop.bound);
    result.e2e_bound_at_setup += hop.bound;
  }
  result.e2e_advertised = plan.e2e_advertised;
  result.accepted = true;
  result.id = id;
  {
    const MutexLock lock(records_mutex_);
    records_.emplace(id, ConnectionRecord{request, route, plan.hops});
  }
  return result;
}

AdmissionEngine::SetupResult AdmissionEngine::setup(const QosRequest& request,
                                                    const Route& route,
                                                    double lease_expiry) {
  return do_setup(request, route, lease_expiry);
}

AdmissionEngine::SetupResult AdmissionEngine::check(const QosRequest& request,
                                                    const Route& route) const {
  SetupResult result;
  request.traffic.validate();
  if (!evaluator_.priority_valid(request.priority)) {
    apply_reject(result, PathEvaluator::priority_rejection(), {});
    return result;
  }

  const PathPlan plan = plan_path(request, route);
  std::vector<HopVerdict> speculative;
  const std::size_t rejecting = speculative_checks(plan.specs, speculative);
  if (rejecting != kNoHop) {
    apply_reject(result,
                 PathEvaluator::hop_rejection(
                     rejecting, topology_.node(plan.hops[rejecting].node).name,
                     speculative[rejecting].detail),
                 plan.hops);
    return result;
  }

  for (const HopVerdict& hop : speculative) {
    result.hop_bounds.push_back(hop.bound);
    result.e2e_bound_at_setup += hop.bound;
  }
  result.e2e_advertised = plan.e2e_advertised;
  RejectReason deadline = evaluator_.deadline_rejection(
      plan.hops.size(), result.e2e_bound_at_setup, plan.e2e_advertised,
      request.deadline);
  if (deadline.rejected()) {
    result.hop_bounds.clear();
    result.e2e_bound_at_setup = 0;
    result.e2e_advertised = 0;
    apply_reject(result, std::move(deadline), plan.hops);
    return result;
  }
  result.accepted = true;
  return result;
}

AdmissionEngine::SetupResult AdmissionEngine::renegotiate(
    ConnectionId id, const QosRequest& new_request, double lease_expiry) {
  SetupResult result;
  new_request.traffic.validate();
  if (!evaluator_.priority_valid(new_request.priority)) {
    apply_reject(result, PathEvaluator::priority_rejection(), {});
    return result;
  }

  QosRequest old_request;
  Route route;
  {
    const MutexLock lock(records_mutex_);
    const auto it = records_.find(id);
    if (it == records_.end()) {
      RejectReason reject;
      reject.code = RejectCode::kNoRoute;
      reject.detail = "renegotiate: unknown connection id";
      apply_reject(result, std::move(reject), {});
      return result;
    }
    old_request = it->second.request;
    route = it->second.route;
  }

  // The new descriptor is planned over the connection's *existing*
  // route; every speculative check runs against the live state, which
  // still carries the old reservations — exactly the combined-load
  // (make-before-break) check the serial renegotiate walk performs.
  const PathPlan plan = plan_path(new_request, route);
  std::vector<HopVerdict> speculative;
  std::vector<ConcurrentCac::CheckStamp> stamps;
  const std::size_t rejecting =
      speculative_checks(plan.specs, speculative, &stamps);
  if (rejecting != kNoHop) {
    apply_reject(result,
                 PathEvaluator::hop_rejection(
                     rejecting, topology_.node(plan.hops[rejecting].node).name,
                     speculative[rejecting].detail),
                 plan.hops);
    return result;
  }

  if (plan.specs.empty()) {
    RejectReason deadline =
        evaluator_.deadline_rejection(0, 0.0, 0.0, new_request.deadline);
    if (deadline.rejected()) {
      apply_reject(result, std::move(deadline), plan.hops);
      return result;
    }
    result.accepted = true;
    result.id = id;
    const MutexLock lock(records_mutex_);
    const auto it = records_.find(id);
    if (it != records_.end()) it->second.request = new_request;
    return result;
  }

  // Validate-on-commit with the *union* cone: the provisional id is
  // burned even when the locked validation rejects (ids are the one
  // permitted cross-engine difference).
  const ConnectionId provisional =
      next_id_.fetch_add(1, std::memory_order_relaxed);
  DeadlineCtx ctx{&evaluator_, plan.e2e_advertised, new_request.deadline};
  std::vector<ConcurrentCac::SpeculativeHop> witnesses(plan.specs.size());
  for (std::size_t h = 0; h < plan.specs.size(); ++h) {
    witnesses[h] =
        ConcurrentCac::SpeculativeHop{speculative[h], std::move(stamps[h])};
  }
  const ConcurrentCac::PathResult path = cac_.renegotiate_path(
      plan.specs, id, provisional, old_request.priority, lease_expiry,
      &deadline_accept, &ctx, witnesses);

  if (!path.admitted) {
    if (path.rejecting_hop != kNoHop) {
      apply_reject(
          result,
          PathEvaluator::hop_rejection(
              path.rejecting_hop,
              topology_.node(plan.hops[path.rejecting_hop].node).name,
              path.hops[path.rejecting_hop].detail),
          plan.hops);
    } else {
      double computed = 0;
      for (const HopVerdict& hop : path.hops) computed += hop.bound;
      apply_reject(result,
                   evaluator_.deadline_rejection(plan.hops.size(), computed,
                                                 plan.e2e_advertised,
                                                 new_request.deadline),
                   plan.hops);
    }
    return result;
  }

  for (const HopVerdict& hop : path.hops) {
    result.hop_bounds.push_back(hop.bound);
    result.e2e_bound_at_setup += hop.bound;
  }
  result.e2e_advertised = plan.e2e_advertised;
  result.accepted = true;
  result.id = id;
  {
    const MutexLock lock(records_mutex_);
    const auto it = records_.find(id);
    if (it != records_.end()) it->second.request = new_request;
  }
  return result;
}

bool AdmissionEngine::teardown(ConnectionId id) {
  ConnectionRecord record;
  {
    const MutexLock lock(records_mutex_);
    const auto it = records_.find(id);
    if (it == records_.end()) return false;
    record = std::move(it->second);
    records_.erase(it);
  }
  for (const HopRef& hop : record.hops) {
    cac_.remove(shard_of(hop.node), id);
  }
  return true;
}

bool AdmissionEngine::teardown_deferred(ConnectionId id) {
  ConnectionRecord record;
  {
    const MutexLock lock(records_mutex_);
    const auto it = records_.find(id);
    if (it == records_.end()) return false;
    record = std::move(it->second);
    records_.erase(it);
  }
  for (const HopRef& hop : record.hops) {
    cac_.queue_remove(shard_of(hop.node), id);
  }
  return true;
}

std::size_t AdmissionEngine::drain() { return cac_.drain_removals(); }

AdmissionEngine::ReclaimResult AdmissionEngine::reclaim(double now) {
  ReclaimResult result;
  std::set<ConnectionId> orphans;
  for (std::size_t shard = 0; shard < cac_.shard_count(); ++shard) {
    for (const ConnectionId id : cac_.reclaim(shard, now)) {
      ++result.reservations_reclaimed;
      orphans.insert(id);
    }
  }
  result.orphans.assign(orphans.begin(), orphans.end());
  if (!result.orphans.empty()) {
    const MutexLock lock(records_mutex_);
    for (const ConnectionId id : result.orphans) records_.erase(id);
  }
  return result;
}

std::size_t AdmissionEngine::connection_count() const {
  const MutexLock lock(records_mutex_);
  return records_.size();
}

// --- deterministic parallel trace replay --------------------------------

namespace {

ConnectionId resolve_trace_id(const AdmissionEngine::TraceOp& op,
                              std::span<const ConnectionId> ids_by_op) {
  if (op.target != AdmissionEngine::TraceOp::kNoTarget) {
    return ids_by_op[op.target];
  }
  return op.id;
}

}  // namespace

AdmissionEngine::OpOutcome AdmissionEngine::run_trace_op(
    std::size_t index, std::span<const TraceOp> trace,
    std::span<ConnectionId> ids_by_op) {
  const TraceOp& op = trace[index];
  OpOutcome outcome;
  switch (op.kind) {
    case TraceOp::Kind::kCheck: {
      SetupResult r = check(op.request, op.route);
      outcome.accepted = r.accepted;
      outcome.reason = std::move(r.reason);
      outcome.reject = std::move(r.reject);
      break;
    }
    case TraceOp::Kind::kSetup: {
      SetupResult r = do_setup(op.request, op.route,
                               SwitchCac::kPermanentLease);
      ids_by_op[index] = r.accepted ? r.id : kInvalidConnection;
      outcome.accepted = r.accepted;
      outcome.reason = std::move(r.reason);
      outcome.reject = std::move(r.reject);
      break;
    }
    case TraceOp::Kind::kTeardown: {
      const ConnectionId id = resolve_trace_id(op, ids_by_op);
      outcome.accepted = id != kInvalidConnection && teardown(id);
      break;
    }
    case TraceOp::Kind::kTeardownDeferred: {
      const ConnectionId id = resolve_trace_id(op, ids_by_op);
      outcome.accepted = id != kInvalidConnection && teardown_deferred(id);
      break;
    }
    case TraceOp::Kind::kDrain: {
      drain();
      outcome.accepted = true;
      break;
    }
    case TraceOp::Kind::kModify: {
      const ConnectionId id = resolve_trace_id(op, ids_by_op);
      if (id == kInvalidConnection) break;  // rejected setup: no-op
      SetupResult r = renegotiate(id, op.request);
      outcome.accepted = r.accepted;
      outcome.reason = std::move(r.reason);
      outcome.reject = std::move(r.reject);
      break;
    }
  }
  return outcome;
}

// GCC 12's -Wfree-nonheap-object misfires here: after inlining the
// worker lambda it flags the destructor of a plainly heap-backed vector
// because of the span arithmetic over ids_by_op.  Scoped suppression;
// clang and newer GCCs are clean.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfree-nonheap-object"
#endif

std::vector<AdmissionEngine::OpOutcome> AdmissionEngine::replay(
    std::span<const TraceOp> trace, std::size_t threads) {
  const std::size_t n = trace.size();
  std::vector<OpOutcome> outcomes(n);
  if (n == 0) return outcomes;

  const std::size_t shard_count = cac_.shard_count();

  // Schedule: which shards each op conflicts on, and whether it writes.
  std::vector<std::vector<std::size_t>> touched(n);
  std::vector<char> is_write(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const TraceOp& op = trace[i];
    const Route* route = &op.route;
    switch (op.kind) {
      case TraceOp::Kind::kCheck:
        break;
      case TraceOp::Kind::kSetup:
      case TraceOp::Kind::kTeardownDeferred:
      case TraceOp::Kind::kTeardown:
      case TraceOp::Kind::kModify:
        is_write[i] = 1;
        if (op.target != TraceOp::kNoTarget) route = &trace[op.target].route;
        break;
      case TraceOp::Kind::kDrain:
        is_write[i] = 1;
        touched[i].resize(shard_count);
        for (std::size_t s = 0; s < shard_count; ++s) touched[i][s] = s;
        break;
    }
    if (op.kind != TraceOp::Kind::kDrain) {
      for (const HopRef& hop : queueing_points(*route)) {
        touched[i].push_back(shard_of(hop.node));
      }
      std::sort(touched[i].begin(), touched[i].end());
      touched[i].erase(std::unique(touched[i].begin(), touched[i].end()),
                       touched[i].end());
    }
  }

  // Per-(op, shard) ticket preconditions: how many earlier writes /
  // reads of that shard must have finished before the op may run.
  std::vector<std::vector<std::size_t>> w_before(n);
  std::vector<std::vector<std::size_t>> r_before(n);
  {
    std::vector<std::size_t> wcount(shard_count, 0);
    std::vector<std::size_t> rcount(shard_count, 0);
    for (std::size_t i = 0; i < n; ++i) {
      w_before[i].reserve(touched[i].size());
      r_before[i].reserve(touched[i].size());
      for (const std::size_t s : touched[i]) {
        w_before[i].push_back(wcount[s]);
        r_before[i].push_back(rcount[s]);
      }
      for (const std::size_t s : touched[i]) {
        if (is_write[i] != 0) {
          ++wcount[s];
        } else {
          ++rcount[s];
        }
      }
    }
  }

  std::vector<std::atomic<std::size_t>> wdone(shard_count);
  std::vector<std::atomic<std::size_t>> rdone(shard_count);
  std::vector<ConnectionId> ids_by_op(n, kInvalidConnection);
  std::atomic<std::size_t> next_op{0};

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next_op.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      // Wait for the trace-order prefix of conflicting ops: reads wait
      // out earlier writes; writes also wait out earlier reads.
      for (std::size_t k = 0; k < touched[i].size(); ++k) {
        const std::size_t s = touched[i][k];
        while (wdone[s].load(std::memory_order_acquire) != w_before[i][k]) {
          std::this_thread::yield();
        }
        if (is_write[i] != 0) {
          while (rdone[s].load(std::memory_order_acquire) != r_before[i][k]) {
            std::this_thread::yield();
          }
        }
      }
      outcomes[i] = run_trace_op(i, trace, ids_by_op);
      for (const std::size_t s : touched[i]) {
        if (is_write[i] != 0) {
          wdone[s].fetch_add(1, std::memory_order_release);
        } else {
          rdone[s].fetch_add(1, std::memory_order_release);
        }
      }
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  return outcomes;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace rtcac
