// Unit tests for the network CAC report (buffer sizing, Section 5).

#include "net/report.h"

#include <gtest/gtest.h>

namespace rtcac {
namespace {

struct Bed {
  Topology topo;
  NodeId t0, t1, sw0, sw1;
  LinkId a0, a1, mid, out;

  Bed() {
    t0 = topo.add_terminal();
    t1 = topo.add_terminal();
    sw0 = topo.add_switch("edge");
    sw1 = topo.add_switch("core");
    const NodeId dst = topo.add_terminal();
    a0 = topo.add_link(t0, sw0);
    a1 = topo.add_link(t1, sw0);
    mid = topo.add_link(sw0, sw1);
    out = topo.add_link(sw1, dst);
  }
};

TEST(NetworkReport, EmptyNetworkHasNoQueues) {
  Bed bed;
  ConnectionManager manager(bed.topo, {});
  const NetworkReport report = summarize(manager);
  EXPECT_TRUE(report.queues.empty());
  EXPECT_EQ(report.connections, 0u);
  EXPECT_DOUBLE_EQ(report.worst_bound(), 0.0);
  EXPECT_EQ(report.total_recommended_slots(), 0u);
  EXPECT_TRUE(report.all_within_advertised());
}

TEST(NetworkReport, TracksAdmittedQueues) {
  Bed bed;
  ConnectionManager::Params params;
  params.advertised_bound = 32;
  ConnectionManager manager(bed.topo, params);
  QosRequest request;
  request.traffic = TrafficDescriptor::cbr(0.25);
  ASSERT_TRUE(manager.setup(request, Route{bed.a0, bed.mid, bed.out}).accepted);
  ASSERT_TRUE(manager.setup(request, Route{bed.a1, bed.mid, bed.out}).accepted);

  const NetworkReport report = summarize(manager);
  EXPECT_EQ(report.connections, 2u);
  // Two active queues: sw0's mid-port and sw1's out-port, both priority 0.
  ASSERT_EQ(report.queues.size(), 2u);
  const QueueReport& edge = report.queues[0];
  EXPECT_EQ(edge.node_name, "edge");
  EXPECT_EQ(edge.connections, 2u);
  EXPECT_NEAR(edge.sustained_load, 0.5, 1e-9);
  EXPECT_GT(edge.computed_bound, 0.0);  // two aligned first cells
  EXPECT_DOUBLE_EQ(edge.advertised_bound, 32.0);
  EXPECT_GE(edge.recommended_slots, 2u);  // backlog >= 1 cell, +register
  EXPECT_TRUE(report.all_within_advertised());
  EXPECT_GE(report.worst_bound(), edge.computed_bound);
  EXPECT_GE(report.total_recommended_slots(),
            edge.recommended_slots + report.queues[1].recommended_slots);
}

TEST(NetworkReport, SeparatesPriorities) {
  Bed bed;
  ConnectionManager::Params params;
  params.priorities = 2;
  params.advertised_bound = 64;
  ConnectionManager manager(bed.topo, params);
  QosRequest high;
  high.traffic = TrafficDescriptor::cbr(0.2);
  high.priority = 0;
  QosRequest low;
  low.traffic = TrafficDescriptor::vbr(0.5, 0.1, 4);
  low.priority = 1;
  ASSERT_TRUE(manager.setup(high, Route{bed.a0, bed.mid, bed.out}).accepted);
  ASSERT_TRUE(manager.setup(low, Route{bed.a1, bed.mid, bed.out}).accepted);

  const NetworkReport report = summarize(manager);
  ASSERT_EQ(report.queues.size(), 4u);  // 2 switches x 2 priorities
  std::size_t at_prio0 = 0;
  std::size_t at_prio1 = 0;
  for (const QueueReport& q : report.queues) {
    (q.priority == 0 ? at_prio0 : at_prio1) += q.connections;
  }
  EXPECT_EQ(at_prio0, 2u);  // the high connection crosses two switches
  EXPECT_EQ(at_prio1, 2u);
}

TEST(NetworkReport, ToStringContainsNodeNamesAndCounts) {
  Bed bed;
  ConnectionManager manager(bed.topo, {});
  QosRequest request;
  request.traffic = TrafficDescriptor::cbr(0.1);
  ASSERT_TRUE(manager.setup(request, Route{bed.a0, bed.mid, bed.out}).accepted);
  const std::string text = summarize(manager).to_string();
  EXPECT_NE(text.find("edge"), std::string::npos);
  EXPECT_NE(text.find("core"), std::string::npos);
  EXPECT_NE(text.find("1 connections"), std::string::npos);
}

TEST(NetworkReport, TeardownShrinksReport) {
  Bed bed;
  ConnectionManager manager(bed.topo, {});
  QosRequest request;
  request.traffic = TrafficDescriptor::cbr(0.1);
  const auto setup = manager.setup(request, Route{bed.a0, bed.mid, bed.out});
  ASSERT_TRUE(setup.accepted);
  EXPECT_EQ(summarize(manager).queues.size(), 2u);
  manager.teardown(setup.id);
  EXPECT_TRUE(summarize(manager).queues.empty());
}

TEST(SignalingReport, IdleEngineReportsCleanSlate) {
  Bed bed;
  ConnectionManager manager(bed.topo, {});
  SignalingEngine engine(manager);
  const SignalingReport report = summarize_signaling(engine);
  EXPECT_EQ(report.attempts, 0u);
  EXPECT_EQ(report.connected, 0u);
  EXPECT_DOUBLE_EQ(report.connect_ratio(), 1.0);
  EXPECT_EQ(report.lost_to_faults, 0u);
  EXPECT_NE(report.to_string().find("signaling report"), std::string::npos);
}

TEST(SignalingReport, AggregatesEngineAndManagerCounters) {
  Bed bed;
  ConnectionManager manager(bed.topo, {});
  FaultInjector faults(3);
  faults.drop_nth(SignalingMessageType::kConnected, 1);
  SignalingEngine engine(manager, SignalingEngine::Timers{}, &faults);
  QosRequest request;
  request.traffic = TrafficDescriptor::cbr(0.25);
  const ConnectionId id =
      engine.initiate(request, Route{bed.a0, bed.mid, bed.out});
  engine.run();
  ASSERT_TRUE(engine.outcome(id)->connected);
  ASSERT_TRUE(engine.release(id));
  engine.run();

  const SignalingReport report = summarize_signaling(engine);
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_EQ(report.connected, 1u);
  EXPECT_DOUBLE_EQ(report.connect_ratio(), 1.0);
  EXPECT_EQ(report.retransmits, 1u);      // the dropped CONNECTED cost one
  EXPECT_EQ(report.lost_to_faults, 1u);
  EXPECT_EQ(report.releases_sent, 1u);
  EXPECT_EQ(report.teardowns.at(TeardownReason::kRelease), 1u);
  EXPECT_EQ(report.orphans_reclaimed, manager.orphans_reclaimed());
  const std::string text = report.to_string();
  EXPECT_NE(text.find("retransmits 1"), std::string::npos);
  EXPECT_NE(text.find("torn down (release): 1"), std::string::npos);
}

// The report's totals come from the engine's lifetime counters, not from
// its outcome window, so they count every attempt however many finished.
TEST(SignalingReport, TotalsCountAttemptsBeyondTheOutcomeWindow) {
  Bed bed;
  ConnectionManager manager(bed.topo, {});
  SignalingEngine engine(manager);
  const Route route{bed.a0, bed.mid, bed.out};
  const std::size_t n = SignalingEngine::kOutcomeWindow + 16;
  // A held 0.6 connection from the other terminal makes every 0.5
  // request overload the shared links.
  QosRequest held;
  held.traffic = TrafficDescriptor::cbr(0.6);
  const ConnectionId held_id =
      engine.initiate(held, Route{bed.a1, bed.mid, bed.out});
  engine.run();
  ASSERT_TRUE(engine.outcome(held_id)->connected);
  std::size_t connected = 1;
  for (std::size_t i = 1; i < n; ++i) {
    QosRequest request;
    request.traffic = TrafficDescriptor::cbr(i % 4 == 0 ? 0.5 : 0.25);
    const ConnectionId id = engine.initiate(request, route);
    engine.run();
    if (engine.outcome(id)->connected) {
      ++connected;
      ASSERT_TRUE(manager.teardown(id));
    }
  }
  ASSERT_LT(connected, n);
  EXPECT_EQ(engine.outcomes().size(), SignalingEngine::kOutcomeWindow);
  EXPECT_FALSE(engine.outcome(held_id).has_value());  // evicted

  const SignalingReport report = summarize_signaling(engine);
  EXPECT_EQ(report.attempts, n);
  EXPECT_EQ(report.connected, connected);
  EXPECT_EQ(report.attempts, engine.counters().setups_finished);
  EXPECT_EQ(report.connected, engine.counters().setups_connected);
}

}  // namespace
}  // namespace rtcac
