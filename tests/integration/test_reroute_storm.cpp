// Seeded reroute failure storms (ctest label "soak"): the acceptance test
// of the survivability layer.  For 256 seeds, a random multipath topology
// carries a random connection population through a random schedule of
// switch and link outages, driven through the RerouteCoordinator.  After
// the storm:
//
//   * zero leaked reservations — every switch holds exactly the hop
//     reservations of the surviving connections, with consistent books
//     and conserved bandwidth;
//   * decisions replay deterministically — a second run of the same seed
//     produces a bit-identical decision journal;
//   * re-admission latency is bounded — no rescue took longer than the
//     retry schedule allows, and every episode was resolved (rehomed,
//     kept its recovered path, or was degraded into the report).
//
// Failures print the offending seed for isolated replay.

#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <set>
#include <vector>

#include "net/report.h"
#include "net/reroute.h"
#include "net/routing.h"
#include "util/xorshift.h"

namespace rtcac {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A random multipath network: a bidirectional switch ring (so transit
// always has a second way around) plus random chords, with a handful of
// terminals hanging off random switches.
struct StormNet {
  Topology topo;
  std::vector<NodeId> switches;
  std::vector<LinkId> transit;  // inter-switch links (outage candidates)
  std::vector<NodeId> terminals;

  explicit StormNet(Xorshift& rng) {
    const std::size_t n = 4 + rng.below(5);
    for (std::size_t i = 0; i < n; ++i) {
      switches.push_back(topo.add_switch());
    }
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId a = switches[i];
      const NodeId b = switches[(i + 1) % n];
      transit.push_back(topo.add_link(a, b));
      transit.push_back(topo.add_link(b, a));
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 2; j < n; ++j) {
        if (rng.chance(0.25)) {
          transit.push_back(topo.add_link(switches[i], switches[j]));
          transit.push_back(topo.add_link(switches[j], switches[i]));
        }
      }
    }
    const std::size_t t = 2 + rng.below(3);
    for (std::size_t i = 0; i < t; ++i) {
      const NodeId term = topo.add_terminal();
      terminals.push_back(term);
      topo.add_link(term, switches[rng.below(switches.size())]);
    }
  }
};

struct StormRun {
  std::deque<RerouteDecision> decisions;
  RerouteCoordinator::Stats stats;
  std::size_t admitted = 0;
  std::size_t survivors = 0;
  std::size_t degraded_entries = 0;
};

// The latest tick any retry of an episode can fire at, relative to its
// failure tick: the full exponential backoff schedule.
Tick rescue_latency_bound(const RerouteCoordinator::Params& params) {
  Tick span = 0;
  Tick step = params.retry_backoff;
  for (std::uint32_t a = 1; a < params.max_attempts; ++a) {
    span += step;
    step *= params.backoff_multiplier;
  }
  return span;
}

StormRun storm_one_seed(std::uint64_t seed) {
  Xorshift rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  StormNet net(rng);

  ConnectionManager::Params params;
  params.priorities = 2;
  params.advertised_bound = 48;
  ConnectionManager mgr(net.topo, params);
  FaultInjector faults(seed);
  RerouteCoordinator coordinator(mgr, faults);

  StormRun run;

  // Random connection population, terminal -> random far switch.
  const std::size_t storm = 6 + rng.below(10);
  for (std::size_t i = 0; i < storm; ++i) {
    const NodeId src = net.terminals[rng.below(net.terminals.size())];
    const NodeId dst = net.switches[rng.below(net.switches.size())];
    const auto route = shortest_route(net.topo, src, dst);
    if (!route.has_value() || route->empty()) continue;
    QosRequest request;
    request.traffic = TrafficDescriptor::cbr(rng.uniform(0.02, 0.15));
    request.deadline = rng.chance(0.25) ? rng.uniform(40.0, 400.0) : kInf;
    request.priority = static_cast<Priority>(rng.below(2));
    if (mgr.setup(request, *route).accepted) ++run.admitted;
  }

  // Random outage schedule over transit links and switches (windows may
  // overlap, nest, or hit components nothing routes over).
  const std::size_t outages = 1 + rng.below(5);
  for (std::size_t i = 0; i < outages; ++i) {
    const Tick from = static_cast<Tick>(rng.below(64));
    const Tick to = from + static_cast<Tick>(1 + rng.below(48));
    if (rng.chance(0.35)) {
      faults.schedule_node_outage(
          net.switches[rng.below(net.switches.size())], from, to);
    } else {
      faults.schedule_link_outage(net.transit[rng.below(net.transit.size())],
                                  from, to);
    }
  }

  // Ride out the storm, drain every pending retry, then play any
  // remaining recovery boundaries out.
  coordinator.advance_to(128);
  coordinator.quiesce();
  coordinator.advance_to(4096);
  coordinator.quiesce();

  // Every episode resolved, one way or the other.
  EXPECT_EQ(coordinator.pending_reroutes(), 0u);
  const RerouteCoordinator::Stats& s = coordinator.stats();
  EXPECT_EQ(s.episodes, s.rehomed + s.kept_original + s.degraded);

  // Bounded re-admission latency: no rescue outlived its retry schedule.
  EXPECT_LE(s.max_rescue_latency, rescue_latency_bound(coordinator.params()));

  // Population accounting: admitted = survivors + degraded, and the
  // teardown counters agree with the coordinator's story.
  EXPECT_EQ(run.admitted, mgr.connection_count() + s.degraded);
  EXPECT_EQ(mgr.teardowns(TeardownReason::kFailure), s.degraded);
  EXPECT_EQ(mgr.teardowns(TeardownReason::kRerouted), s.rehomed);
  EXPECT_EQ(coordinator.degradation().entries.size(), s.degraded);
  for (const DegradationEntry& entry : coordinator.degradation().entries) {
    EXPECT_NE(entry.reason.code, RejectCode::kNone);
    EXPECT_GE(entry.gave_up_at, entry.failed_at);
    EXPECT_EQ(entry.attempts, coordinator.params().max_attempts);
  }

  // Zero leaks: each switch carries exactly the surviving connections'
  // hop reservations, permanently, with balanced books.
  std::set<ConnectionId> live;
  for (const auto& entry : mgr.connections()) live.insert(entry.first);
  for (const NodeId sw : net.switches) {
    if (net.topo.out_links(sw).empty()) continue;
    const SwitchCac& cac = mgr.switch_cac(sw);
    EXPECT_TRUE(cac.state_consistent()) << "switch " << sw;
    EXPECT_TRUE(cac.bandwidth_conserved()) << "switch " << sw;
    for (const ConnectionId id : cac.connection_ids()) {
      EXPECT_TRUE(live.contains(id))
          << "leaked reservation for " << id << " at switch " << sw;
      EXPECT_EQ(cac.lease_expiry(id), SwitchCac::kPermanentLease);
    }
  }
  // ...and never a survivor without a fully reserved path (the
  // make-before-break invariant, observed at quiescence).
  for (const auto& entry : mgr.connections()) {
    for (const HopRef& hop : entry.second.hops) {
      EXPECT_TRUE(mgr.policy_point(hop.node).contains(entry.first))
          << "connection " << entry.first << " lost a hop reservation";
    }
  }

  // The summary aggregates coherently.
  const RerouteReport report = summarize_reroute(coordinator);
  EXPECT_EQ(report.episodes, s.episodes);
  EXPECT_EQ(report.degraded, s.degraded);
  std::size_t by_reason = 0;
  for (const auto& [code, count] : report.degraded_by_reason) {
    by_reason += count;
  }
  EXPECT_EQ(by_reason, s.degraded);

  // The journal is a window: the storm must fit in it, or the replay
  // comparison below would miss the evicted decisions.
  EXPECT_EQ(coordinator.decisions().size(), s.decisions);
  EXPECT_LE(s.decisions, RerouteCoordinator::kDecisionWindow);
  run.decisions = coordinator.decisions();
  run.stats = s;
  run.survivors = mgr.connection_count();
  run.degraded_entries = coordinator.degradation().entries.size();
  return run;
}

TEST(RerouteStorm, TwoHundredFiftySixSeededStormsLeakNothing) {
  for (std::uint64_t seed = 1; seed <= 256; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    storm_one_seed(seed);
    if (::testing::Test::HasFailure()) break;  // first bad seed is enough
  }
}

TEST(RerouteStorm, DecisionJournalsReplayDeterministically) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const StormRun first = storm_one_seed(seed);
    const StormRun second = storm_one_seed(seed);
    ASSERT_EQ(first.decisions.size(), second.decisions.size());
    EXPECT_TRUE(first.decisions == second.decisions)
        << "decision journal diverged across identical runs";
    EXPECT_EQ(first.admitted, second.admitted);
    EXPECT_EQ(first.survivors, second.survivors);
    EXPECT_EQ(first.degraded_entries, second.degraded_entries);
    EXPECT_EQ(first.stats.attempts, second.stats.attempts);
    EXPECT_EQ(first.stats.max_rescue_latency, second.stats.max_rescue_latency);
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace rtcac