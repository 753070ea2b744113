// Unit tests for the distributed SETUP/REJECT/CONNECTED procedure
// (Section 4.1), including its equivalence with central admission.

#include "net/signaling.h"

#include <gtest/gtest.h>

#include <limits>

namespace rtcac {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Chain {
  Topology topo;
  NodeId term0, term1, sw0, sw1, sw2;
  LinkId acc0, acc1, l01, l12;

  Chain() {
    term0 = topo.add_terminal();
    term1 = topo.add_terminal();
    sw0 = topo.add_switch();
    sw1 = topo.add_switch();
    sw2 = topo.add_switch();
    acc0 = topo.add_link(term0, sw0);
    acc1 = topo.add_link(term1, sw0);
    l01 = topo.add_link(sw0, sw1);
    l12 = topo.add_link(sw1, sw2);
  }

  [[nodiscard]] ConnectionManager::Params params() const {
    ConnectionManager::Params p;
    p.priorities = 1;
    p.advertised_bound = 32;
    return p;
  }
};

QosRequest cbr_request(double pcr, double deadline = kInf) {
  QosRequest r;
  r.traffic = TrafficDescriptor::cbr(pcr);
  r.deadline = deadline;
  return r;
}

TEST(Signaling, SuccessfulSetupConnects) {
  Chain c;
  ConnectionManager mgr(c.topo, c.params());
  SignalingEngine engine(mgr);
  const ConnectionId id =
      engine.initiate(cbr_request(0.5), Route{c.acc0, c.l01, c.l12});
  EXPECT_FALSE(engine.outcome(id).has_value());  // still in flight
  engine.run();
  const auto outcome = engine.outcome(id);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->connected);
  EXPECT_DOUBLE_EQ(outcome->e2e_advertised, 64.0);
  EXPECT_EQ(mgr.connection_count(), 1u);  // adopted into the manager
  EXPECT_TRUE(mgr.teardown(id));
}

TEST(Signaling, MessageSequenceOfSuccessfulSetup) {
  Chain c;
  ConnectionManager mgr(c.topo, c.params());
  SignalingEngine engine(mgr);
  engine.initiate(cbr_request(0.25), Route{c.acc0, c.l01, c.l12});
  engine.run();
  const auto& trace = engine.trace();
  // SETUP at hop 0, hop 1, destination check, CONNECTED back.
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0].type, SignalingMessageType::kSetup);
  EXPECT_EQ(trace[1].type, SignalingMessageType::kSetup);
  EXPECT_EQ(trace[2].type, SignalingMessageType::kSetup);
  EXPECT_EQ(trace[3].type, SignalingMessageType::kConnected);
  EXPECT_FALSE(to_string(trace[0]).empty());
  EXPECT_EQ(engine.counters().messages_processed, 4u);
}

// The protocol trace is a fixed window: driving twice the requests
// through one engine doubles the message count but not the memory kept.
TEST(Signaling, TraceRetentionDoesNotGrowWithRequests) {
  Chain c;
  ConnectionManager mgr(c.topo, c.params());
  SignalingEngine engine(mgr);
  // Each setup is four messages, so n requests overflow the window.
  const std::size_t n = SignalingEngine::kTraceWindow / 2;
  ConnectionId last = kInvalidConnection;
  const auto drive = [&](std::size_t requests) {
    for (std::size_t r = 0; r < requests; ++r) {
      last = engine.initiate(cbr_request(0.25), Route{c.acc0, c.l01, c.l12});
      engine.run();
      ASSERT_TRUE(engine.outcome(last)->connected);
      ASSERT_TRUE(mgr.teardown(last));
    }
  };

  drive(n);
  const std::size_t after_n = engine.counters().messages_processed;
  EXPECT_EQ(after_n, 4 * n);
  EXPECT_EQ(engine.trace().size(), SignalingEngine::kTraceWindow);
  EXPECT_EQ(engine.trace().back().id, last);

  drive(n);
  EXPECT_EQ(engine.counters().messages_processed, 2 * after_n);
  EXPECT_EQ(engine.trace().size(), SignalingEngine::kTraceWindow);
  // The window holds the newest messages, oldest first.
  EXPECT_EQ(engine.trace().back().id, last);
  EXPECT_EQ(engine.trace().back().type, SignalingMessageType::kConnected);
  EXPECT_EQ(engine.trace().front().type, SignalingMessageType::kSetup);
}

// The outcome ledgers are windows and lost RELEASE walks retire, so
// driving twice the requests through one engine doubles the lifetime
// totals but not the state kept.
TEST(Signaling, LedgersDoNotGrowWithRequests) {
  Chain c;
  ConnectionManager mgr(c.topo, c.params());
  const std::size_t n = SignalingEngine::kOutcomeWindow;
  // A completed walk over the route's two hops sends two RELEASEs and a
  // lost one only its first, so dropping every third RELEASE loses every
  // other walk at its first hop.
  FaultInjector faults(1);
  for (std::size_t k = 1; k <= 3 * n; k += 3) {
    faults.drop_nth(SignalingMessageType::kRelease, k);
  }
  SignalingEngine engine(mgr, SignalingEngine::Timers{}, &faults);
  const Route route{c.acc0, c.l01, c.l12};
  ConnectionId first = kInvalidConnection;
  ConnectionId last = kInvalidConnection;
  const auto drive = [&](std::size_t requests) {
    for (std::size_t r = 0; r < requests; ++r) {
      last = engine.initiate(cbr_request(0.25), route);
      if (first == kInvalidConnection) first = last;
      engine.run();
      ASSERT_TRUE(engine.outcome(last)->connected);
      ASSERT_TRUE(engine.modify(last, cbr_request(0.3)));
      engine.run();
      ASSERT_TRUE(engine.modify_outcome(last)->connected);
      ASSERT_TRUE(engine.release(last));
      engine.run();
      // A lost walk leaves the connection listed; the central teardown
      // returns its reservations.
      if (mgr.connections().contains(last)) {
        ASSERT_TRUE(mgr.teardown(last));
      }
    }
  };

  drive(n);
  const SignalingEngine::Counters after_n = engine.counters();
  EXPECT_EQ(after_n.setups_finished, n);
  EXPECT_EQ(after_n.setups_connected, n);
  EXPECT_EQ(after_n.modifies_completed, n);
  EXPECT_EQ(after_n.releases_sent, n);
  EXPECT_EQ(after_n.releases_retired, n / 2);
  EXPECT_EQ(mgr.teardowns(TeardownReason::kRelease), n / 2);
  EXPECT_EQ(engine.outcomes().size(), SignalingEngine::kOutcomeWindow);
  EXPECT_EQ(engine.modify_outcomes().size(),
            SignalingEngine::kModifyOutcomeWindow);
  EXPECT_EQ(engine.releases_in_flight(), 0u);

  drive(n);
  const SignalingEngine::Counters& after_2n = engine.counters();
  EXPECT_EQ(after_2n.setups_finished, 2 * after_n.setups_finished);
  EXPECT_EQ(after_2n.setups_connected, 2 * after_n.setups_connected);
  EXPECT_EQ(after_2n.modifies_completed, 2 * after_n.modifies_completed);
  EXPECT_EQ(after_2n.releases_sent, 2 * after_n.releases_sent);
  EXPECT_EQ(after_2n.releases_retired, 2 * after_n.releases_retired);
  EXPECT_EQ(engine.outcomes().size(), SignalingEngine::kOutcomeWindow);
  EXPECT_EQ(engine.modify_outcomes().size(),
            SignalingEngine::kModifyOutcomeWindow);
  EXPECT_EQ(engine.releases_in_flight(), 0u);
  // The windows hold the newest outcomes; the oldest are gone.
  EXPECT_TRUE(engine.outcome(last).has_value());
  EXPECT_TRUE(engine.modify_outcome(last).has_value());
  EXPECT_FALSE(engine.outcome(first).has_value());
  EXPECT_FALSE(engine.modify_outcome(first).has_value());
  EXPECT_EQ(mgr.connection_count(), 0u);
}

TEST(Signaling, RejectionReleasesUpstreamReservations) {
  Chain c;
  ConnectionManager mgr(c.topo, c.params());
  SignalingEngine engine(mgr);
  // Fill the shared links.
  const ConnectionId first =
      engine.initiate(cbr_request(0.7), Route{c.acc0, c.l01, c.l12});
  engine.run();
  ASSERT_TRUE(engine.outcome(first)->connected);

  const ConnectionId second =
      engine.initiate(cbr_request(0.6), Route{c.acc1, c.l01, c.l12});
  engine.run();
  const auto outcome = engine.outcome(second);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->connected);
  EXPECT_FALSE(outcome->reason.empty());
  // No residue at either switch.
  EXPECT_TRUE(mgr.switch_cac(c.sw0).state_consistent());
  EXPECT_EQ(mgr.switch_cac(c.sw0).connection_count(), 1u);
  EXPECT_EQ(mgr.switch_cac(c.sw1).connection_count(), 1u);
  EXPECT_EQ(mgr.connection_count(), 1u);
}

TEST(Signaling, DeadlineRejectionAtDestination) {
  Chain c;
  auto params = c.params();
  params.guarantee = GuaranteeMode::kAdvertised;
  ConnectionManager mgr(c.topo, params);
  SignalingEngine engine(mgr);
  const ConnectionId id =
      engine.initiate(cbr_request(0.5, 10.0), Route{c.acc0, c.l01, c.l12});
  engine.run();
  const auto outcome = engine.outcome(id);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->connected);
  EXPECT_NE(outcome->reason.find("deadline"), std::string::npos);
  EXPECT_EQ(mgr.switch_cac(c.sw0).connection_count(), 0u);
  EXPECT_EQ(mgr.switch_cac(c.sw1).connection_count(), 0u);
}

TEST(Signaling, StepProcessesOneMessageAtATime) {
  Chain c;
  ConnectionManager mgr(c.topo, c.params());
  SignalingEngine engine(mgr);
  engine.initiate(cbr_request(0.5), Route{c.acc0, c.l01, c.l12});
  std::size_t steps = 0;
  while (engine.step()) ++steps;
  EXPECT_EQ(steps, 4u);
  EXPECT_FALSE(engine.step());  // idle
  EXPECT_EQ(engine.pending_messages(), 0u);
}

TEST(Signaling, InterleavedSetupsAreSerializedConsistently) {
  Chain c;
  ConnectionManager mgr(c.topo, c.params());
  SignalingEngine engine(mgr);
  const ConnectionId a =
      engine.initiate(cbr_request(0.7), Route{c.acc0, c.l01, c.l12});
  const ConnectionId b =
      engine.initiate(cbr_request(0.6), Route{c.acc1, c.l01, c.l12});
  engine.run();
  const bool a_ok = engine.outcome(a)->connected;
  const bool b_ok = engine.outcome(b)->connected;
  // Exactly one of the two can fit on the shared links.
  EXPECT_NE(a_ok, b_ok);
  EXPECT_TRUE(mgr.switch_cac(c.sw0).state_consistent());
}

TEST(Signaling, MatchesCentralAdmissionDecisions) {
  // The distributed procedure admits exactly the same sequence as the
  // central manager, connection for connection.
  const double rates[] = {0.3, 0.3, 0.3, 0.2, 0.2};
  Chain c1;
  ConnectionManager central(c1.topo, c1.params());
  Chain c2;
  ConnectionManager managed(c2.topo, c2.params());
  SignalingEngine engine(managed);

  for (const double r : rates) {
    const auto central_result =
        central.setup(cbr_request(r), Route{c1.acc0, c1.l01, c1.l12});
    const ConnectionId id =
        engine.initiate(cbr_request(r), Route{c2.acc0, c2.l01, c2.l12});
    engine.run();
    EXPECT_EQ(central_result.accepted, engine.outcome(id)->connected)
        << "rate " << r;
    if (central_result.accepted) {
      EXPECT_NEAR(central_result.e2e_bound_at_setup,
                  engine.outcome(id)->e2e_bound_at_setup, 1e-9);
    }
  }
  EXPECT_EQ(central.connection_count(), managed.connection_count());
}

TEST(Signaling, RejectsMalformedRoute) {
  Chain c;
  ConnectionManager mgr(c.topo, c.params());
  SignalingEngine engine(mgr);
  EXPECT_THROW(engine.initiate(cbr_request(0.5), Route{c.l12, c.l01}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rtcac
