// Unit tests for the parallel network-level admission engine
// (admission_engine.h): decision parity with ConnectionManager,
// deferred-teardown batching, lease reclamation, and the
// deterministic parallel trace replay against a serial oracle.  The
// suite carries the "concurrency" ctest label so the tsan CI job
// re-runs it under ThreadSanitizer.

#include "net/admission_engine.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/traffic.h"
#include "util/xorshift.h"

namespace rtcac {
namespace {

using TraceOp = AdmissionEngine::TraceOp;
using OpOutcome = AdmissionEngine::OpOutcome;

constexpr std::size_t kSwitches = 4;
constexpr std::size_t kTermsPerSwitch = 2;
constexpr Priority kPriorities = 2;

struct Net {
  Topology topology;
  std::vector<Route> routes;  // 1..3 queueing points each
};

// Small version of the bench topology: a switch chain where every switch
// carries source and sink terminals, so routes span 1-3 shards and
// neighboring routes contend on shared switches.
Net make_net() {
  Net net;
  std::vector<NodeId> switches;
  for (std::size_t s = 0; s < kSwitches; ++s) {
    switches.push_back(net.topology.add_switch("sw" + std::to_string(s)));
  }
  std::vector<LinkId> chain;
  for (std::size_t s = 0; s + 1 < kSwitches; ++s) {
    chain.push_back(net.topology.add_link(switches[s], switches[s + 1]));
  }
  std::vector<std::vector<LinkId>> access(kSwitches);
  std::vector<std::vector<LinkId>> egress(kSwitches);
  for (std::size_t s = 0; s < kSwitches; ++s) {
    for (std::size_t t = 0; t < kTermsPerSwitch; ++t) {
      const NodeId src = net.topology.add_terminal();
      access[s].push_back(net.topology.add_link(src, switches[s]));
      const NodeId dst = net.topology.add_terminal();
      egress[s].push_back(net.topology.add_link(switches[s], dst));
    }
  }
  for (std::size_t s = 0; s < kSwitches; ++s) {
    for (std::size_t hops = 1; hops <= 3; ++hops) {
      const std::size_t last = s + hops - 1;
      if (last >= kSwitches) continue;
      for (std::size_t ti = 0; ti < kTermsPerSwitch; ++ti) {
        Route route;
        route.push_back(access[s][ti]);
        for (std::size_t h = s; h < last; ++h) route.push_back(chain[h]);
        route.push_back(egress[last][ti]);
        net.routes.push_back(std::move(route));
      }
    }
  }
  return net;
}

ConnectionManager::Params make_params() {
  ConnectionManager::Params params;
  params.priorities = kPriorities;
  params.advertised_bound = 256.0;
  return params;
}

QosRequest random_request(Xorshift& rng) {
  QosRequest request;
  const double scr = static_cast<double>(1 + rng.below(6)) / 1024.0;
  const double pcr = scr * static_cast<double>(2 + rng.below(4));
  request.traffic = TrafficDescriptor::vbr(
      pcr, scr, static_cast<std::uint32_t>(2 + rng.below(16)));
  request.priority = static_cast<Priority>(rng.below(kPriorities));
  // One in six deadlines tight enough to trip the end-to-end check once
  // the computed bounds have grown under load.
  request.deadline = rng.below(6) == 0 ? 500.0 : 1e7;
  return request;
}

void expect_same_result(const AdmissionEngine::SetupResult& got,
                        const ConnectionManager::SetupResult& want,
                        std::size_t step) {
  EXPECT_EQ(got.accepted, want.accepted) << "step " << step;
  EXPECT_EQ(got.reason, want.reason) << "step " << step;
  EXPECT_EQ(got.rejecting_node, want.rejecting_node) << "step " << step;
  ASSERT_EQ(got.hop_bounds.size(), want.hop_bounds.size()) << "step " << step;
  for (std::size_t h = 0; h < got.hop_bounds.size(); ++h) {
    EXPECT_DOUBLE_EQ(got.hop_bounds[h], want.hop_bounds[h]);
  }
  EXPECT_DOUBLE_EQ(got.e2e_bound_at_setup, want.e2e_bound_at_setup);
  EXPECT_DOUBLE_EQ(got.e2e_advertised, want.e2e_advertised);
}

TEST(AdmissionEngine, SetupMatchesConnectionManager) {
  const Net net = make_net();
  const auto params = make_params();
  AdmissionEngine engine(net.topology, params);
  ConnectionManager cm(net.topology, params);
  // Phase 1: hammer one route with heavy bursts until both sides reject,
  // so hop-rejection parity (reason string, rejecting node) is exercised
  // deterministically.
  QosRequest hog;
  hog.traffic = TrafficDescriptor::vbr(0.4, 0.1, 16);
  hog.deadline = 1e7;
  // routes[2] and routes[3] enter sw0 on different access links but share
  // its chain-link queue; per-input filtering means only such multi-input
  // contention can ever fill a queue.
  std::size_t rejections = 0;
  for (std::size_t step = 0; step < 64 && rejections == 0; ++step) {
    const Route& route = net.routes[2 + step % 2];
    const auto got = engine.setup(hog, route);
    const auto want = cm.setup(hog, route);
    expect_same_result(got, want, step);
    if (!want.accepted) ++rejections;
  }
  EXPECT_GT(rejections, 0u);
  // Phase 2: a random mix over every route for broader parity coverage.
  Xorshift rng(11);
  for (std::size_t step = 0; step < 96; ++step) {
    const QosRequest request = random_request(rng);
    const Route& route = net.routes[rng.below(net.routes.size())];
    expect_same_result(engine.setup(request, route),
                       cm.setup(request, route), 100 + step);
  }
  EXPECT_EQ(engine.connection_count(), cm.connection_count());
  EXPECT_TRUE(engine.state_consistent());
  EXPECT_TRUE(engine.bandwidth_conserved());
  EXPECT_TRUE(engine.cache_coherent());
}

TEST(AdmissionEngine, QueueingPointsAndArrivalsMatchConnectionManager) {
  const Net net = make_net();
  const auto params = make_params();
  AdmissionEngine engine(net.topology, params);
  ConnectionManager cm(net.topology, params);
  const auto traffic = TrafficDescriptor::vbr(0.01, 0.002, 8);
  for (const Route& route : net.routes) {
    const auto got = engine.queueing_points(route);
    const auto want = cm.queueing_points(route);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t h = 0; h < got.size(); ++h) {
      EXPECT_EQ(got[h].node, want[h].node);
      EXPECT_EQ(got[h].in_port, want[h].in_port);
      EXPECT_EQ(got[h].out_port, want[h].out_port);
      EXPECT_EQ(engine.arrival_at_hop(traffic, got, h, 1),
                cm.arrival_at_hop(traffic, want, h, 1));
    }
  }
}

TEST(AdmissionEngine, CheckIsCommitFree) {
  const Net net = make_net();
  AdmissionEngine engine(net.topology, make_params());
  Xorshift rng(12);
  const QosRequest request = random_request(rng);
  const Route& route = net.routes.front();
  const auto checked = engine.check(request, route);
  EXPECT_TRUE(checked.accepted) << checked.reason;
  EXPECT_EQ(engine.connection_count(), 0u);
  EXPECT_EQ(engine.core().connection_count(), 0u);
  // The commit then lands on exactly the state the check evaluated.
  const auto committed = engine.setup(request, route);
  EXPECT_TRUE(committed.accepted);
  ASSERT_EQ(committed.hop_bounds.size(), checked.hop_bounds.size());
  for (std::size_t h = 0; h < checked.hop_bounds.size(); ++h) {
    EXPECT_DOUBLE_EQ(committed.hop_bounds[h], checked.hop_bounds[h]);
  }
}

TEST(AdmissionEngine, TeardownRestoresCapacity) {
  const Net net = make_net();
  ConnectionManager::Params params = make_params();
  params.advertised_bound = 16.0;  // small enough for one hog to fill
  AdmissionEngine engine(net.topology, params);
  QosRequest hog;
  hog.traffic = TrafficDescriptor::vbr(0.4, 0.1, 16);
  hog.deadline = 1e7;
  // Alternate two routes contending on sw0's chain-link queue from
  // different access links until the shared queue fills (per-input
  // filtering: a single input can never backlog a queue by itself).
  std::vector<ConnectionId> admitted;
  AdmissionEngine::SetupResult rejected;
  for (std::size_t i = 0; i < 64; ++i) {
    const auto r = engine.setup(hog, net.routes[2 + i % 2]);
    if (!r.accepted) {
      rejected = r;
      break;
    }
    admitted.push_back(r.id);
  }
  ASSERT_FALSE(admitted.empty());
  ASSERT_FALSE(rejected.reason.empty()) << "route never filled";
  // Releasing the last admission restores exactly the state that
  // admitted it, so that route's request fits again.
  const Route& last_route = net.routes[2 + (admitted.size() - 1) % 2];
  EXPECT_TRUE(engine.teardown(admitted.back()));
  EXPECT_FALSE(engine.teardown(admitted.back()));  // already gone
  EXPECT_TRUE(engine.setup(hog, last_route).accepted);
}

TEST(AdmissionEngine, DeferredTeardownHoldsCapacityUntilDrain) {
  const Net net = make_net();
  ConnectionManager::Params params = make_params();
  params.advertised_bound = 16.0;
  AdmissionEngine engine(net.topology, params);
  QosRequest hog;
  hog.traffic = TrafficDescriptor::vbr(0.4, 0.1, 16);
  hog.deadline = 1e7;
  std::vector<ConnectionId> admitted;
  bool filled = false;
  for (std::size_t i = 0; i < 64; ++i) {
    const auto r = engine.setup(hog, net.routes[2 + i % 2]);
    if (!r.accepted) {
      filled = true;
      break;
    }
    admitted.push_back(r.id);
  }
  ASSERT_FALSE(admitted.empty());
  ASSERT_TRUE(filled) << "route never filled";
  // The attempt that hit the full queue vs. the last one that fit.
  const Route& rejected_route = net.routes[2 + admitted.size() % 2];
  const Route& last_route = net.routes[2 + (admitted.size() - 1) % 2];
  const std::size_t hops = engine.queueing_points(last_route).size();

  ASSERT_TRUE(engine.teardown_deferred(admitted.back()));
  EXPECT_FALSE(engine.teardown_deferred(admitted.back()));  // record retired
  EXPECT_EQ(engine.connection_count(), admitted.size() - 1);
  EXPECT_EQ(engine.pending_removals(), hops);
  // The reservations are still committed until the drain, so the queue
  // still looks full to new admissions — deferral trades capacity-return
  // latency for batched rebuild cost, never correctness.
  EXPECT_FALSE(engine.setup(hog, rejected_route).accepted);

  EXPECT_EQ(engine.drain(), hops);
  EXPECT_EQ(engine.pending_removals(), 0u);
  EXPECT_TRUE(engine.setup(hog, last_route).accepted);
  EXPECT_TRUE(engine.state_consistent());
  EXPECT_TRUE(engine.bandwidth_conserved());
  EXPECT_TRUE(engine.cache_coherent());
}

TEST(AdmissionEngine, ReclaimSweepsExpiredLeases) {
  const Net net = make_net();
  AdmissionEngine engine(net.topology, make_params());
  Xorshift rng(14);
  const Route& route = net.routes.back();  // 3 queueing points
  const auto leased =
      engine.setup(random_request(rng), route, /*lease_expiry=*/50.0);
  ASSERT_TRUE(leased.accepted) << leased.reason;
  const auto permanent = engine.setup(random_request(rng), route);
  ASSERT_TRUE(permanent.accepted) << permanent.reason;

  EXPECT_TRUE(engine.reclaim(49.0).orphans.empty());
  const auto swept = engine.reclaim(50.0);
  ASSERT_EQ(swept.orphans.size(), 1u);
  EXPECT_EQ(swept.orphans.front(), leased.id);
  EXPECT_EQ(swept.reservations_reclaimed,
            engine.queueing_points(route).size());
  EXPECT_EQ(engine.connection_count(), 1u);
  EXPECT_FALSE(engine.teardown(leased.id));  // record reclaimed with it
  EXPECT_TRUE(engine.reclaim(1e18).orphans.empty());  // permanent survives
  EXPECT_TRUE(engine.state_consistent());
}

TEST(AdmissionEngine, ShardOfRejectsTerminals) {
  const Net net = make_net();
  AdmissionEngine engine(net.topology, make_params());
  EXPECT_EQ(engine.core().shard_count(), kSwitches);
  NodeId terminal = 0;
  for (const NodeInfo& node : net.topology.nodes()) {
    if (node.kind == NodeKind::kSwitch) {
      EXPECT_LT(engine.shard_of(node.id), kSwitches);
    } else {
      terminal = node.id;
    }
  }
  EXPECT_THROW(static_cast<void>(engine.shard_of(terminal)),
               std::invalid_argument);
}

// --- deterministic parallel replay vs the serial oracle -----------------
// A plain ConnectionManager walks the trace in order; its decisions,
// reason strings and RejectReason records define correctness for every
// thread count.  ConnectionManager::check() is the commit-free oracle
// for kCheck ops — the same walk the bench gate uses.

std::vector<OpOutcome> oracle_replay(const std::vector<TraceOp>& trace,
                                     const Topology& topology,
                                     const ConnectionManager::Params& params,
                                     std::size_t* connections_left) {
  ConnectionManager cm(topology, params);
  std::vector<OpOutcome> outcomes(trace.size());
  std::vector<ConnectionId> ids_by_op(trace.size(), kInvalidConnection);
  std::vector<ConnectionId> deferred;
  std::set<ConnectionId> retired;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceOp& op = trace[i];
    const ConnectionId id = op.target != TraceOp::kNoTarget
                                ? ids_by_op[op.target]
                                : op.id;
    switch (op.kind) {
      case TraceOp::Kind::kCheck: {
        const auto r = cm.check(op.request, op.route);
        outcomes[i] = OpOutcome{r.accepted, r.reason, r.reject};
        break;
      }
      case TraceOp::Kind::kSetup: {
        const auto r = cm.setup(op.request, op.route);
        ids_by_op[i] = r.accepted ? r.id : kInvalidConnection;
        outcomes[i] = OpOutcome{r.accepted, r.reason, r.reject};
        break;
      }
      case TraceOp::Kind::kTeardown:
        outcomes[i].accepted = id != kInvalidConnection &&
                               !retired.contains(id) && cm.teardown(id);
        break;
      case TraceOp::Kind::kTeardownDeferred: {
        const bool live = id != kInvalidConnection &&
                          cm.connections().contains(id) &&
                          !retired.contains(id);
        if (live) {
          retired.insert(id);
          deferred.push_back(id);
        }
        outcomes[i].accepted = live;
        break;
      }
      case TraceOp::Kind::kModify: {
        const bool live = id != kInvalidConnection &&
                          cm.connections().contains(id) &&
                          !retired.contains(id);
        if (!live) {
          // Mirror the engine's unknown-id rejection so a MODIFY racing
          // a teardown still compares bit-identically.
          if (id != kInvalidConnection) {
            outcomes[i].reject.code = RejectCode::kNoRoute;
            outcomes[i].reject.detail = "renegotiate: unknown connection id";
            outcomes[i].reason = outcomes[i].reject.detail;
          }
          break;
        }
        const auto r = cm.renegotiate(id, op.request);
        outcomes[i] = OpOutcome{r.accepted, r.reason, r.reject};
        break;
      }
      case TraceOp::Kind::kDrain:
        for (const ConnectionId d : deferred) {
          (void)cm.teardown(d);
          retired.erase(d);
        }
        deferred.clear();
        outcomes[i].accepted = true;
        break;
    }
  }
  *connections_left = cm.connection_count();
  return outcomes;
}

// Mixed trace with every op kind: setups, checks, immediate and deferred
// teardowns (including repeats on the same target), periodic drains and
// a final drain so end-state connection counts are comparable.
std::vector<TraceOp> make_trace(std::uint64_t seed, std::size_t ops,
                                const Net& net) {
  Xorshift rng(seed);
  std::vector<TraceOp> trace;
  std::vector<std::size_t> setups;
  const auto push_setup = [&] {
    TraceOp op;
    op.kind = TraceOp::Kind::kSetup;
    op.request = random_request(rng);
    op.route = net.routes[rng.below(net.routes.size())];
    setups.push_back(trace.size());
    trace.push_back(std::move(op));
  };
  for (std::size_t i = 0; i < ops / 4; ++i) push_setup();
  for (std::size_t i = 0; i < ops; ++i) {
    const auto dice = rng.below(10);
    if (dice < 5) {
      TraceOp op;
      op.kind = TraceOp::Kind::kCheck;
      op.request = random_request(rng);
      op.route = net.routes[rng.below(net.routes.size())];
      trace.push_back(std::move(op));
    } else if (dice < 8) {
      push_setup();
    } else {
      TraceOp op;
      op.kind = dice == 8 ? TraceOp::Kind::kTeardown
                          : TraceOp::Kind::kTeardownDeferred;
      op.target = setups[rng.below(setups.size())];
      trace.push_back(std::move(op));
    }
    if (i % 24 == 23) {
      TraceOp drain;
      drain.kind = TraceOp::Kind::kDrain;
      trace.push_back(std::move(drain));
    }
  }
  TraceOp drain;
  drain.kind = TraceOp::Kind::kDrain;
  trace.push_back(std::move(drain));
  return trace;
}

TEST(AdmissionEngine, ReplayMatchesSerialOracleOnEveryThreadCount) {
  const Net net = make_net();
  const auto params = make_params();
  for (const std::uint64_t seed : {21u, 22u}) {
    const std::vector<TraceOp> trace = make_trace(seed, 120, net);
    std::size_t oracle_connections = 0;
    const std::vector<OpOutcome> oracle =
        oracle_replay(trace, net.topology, params, &oracle_connections);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
      AdmissionEngine engine(net.topology, params);
      const std::vector<OpOutcome> outcomes = engine.replay(trace, threads);
      ASSERT_EQ(outcomes.size(), oracle.size());
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_EQ(outcomes[i].accepted, oracle[i].accepted)
            << "seed " << seed << " threads " << threads << " op " << i;
        EXPECT_EQ(outcomes[i].reason, oracle[i].reason)
            << "seed " << seed << " threads " << threads << " op " << i;
        EXPECT_EQ(outcomes[i].reject.code, oracle[i].reject.code)
            << "seed " << seed << " threads " << threads << " op " << i;
        EXPECT_EQ(outcomes[i].reject.hop, oracle[i].reject.hop)
            << "seed " << seed << " threads " << threads << " op " << i;
      }
      // The trace ends with a drain, so record counts line up too.
      EXPECT_EQ(engine.connection_count(), oracle_connections);
      EXPECT_EQ(engine.pending_removals(), 0u);
      EXPECT_TRUE(engine.state_consistent());
      EXPECT_TRUE(engine.bandwidth_conserved());
      EXPECT_TRUE(engine.cache_coherent());
    }
  }
}

TEST(AdmissionEngine, ReplayOnEmptyTraceIsANoOp) {
  const Net net = make_net();
  AdmissionEngine engine(net.topology, make_params());
  EXPECT_TRUE(engine.replay({}, 4).empty());
  EXPECT_EQ(engine.connection_count(), 0u);
}

}  // namespace
}  // namespace rtcac
