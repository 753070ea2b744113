// Regression tests for the fault-tolerant signaling engine: lost and
// duplicated control messages, component outages, retransmission with
// attempt epochs, RELEASE teardown and lease-based orphan reclamation
// (docs/FAULT_TOLERANCE.md).  Every scenario must end with zero leaked
// reservations.

#include <gtest/gtest.h>

#include <limits>

#include "net/fault_injector.h"
#include "net/signaling.h"

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

void expect_no_reservations(ConnectionManager& mgr, const Chain& c) {
  for (const NodeId sw : {c.sw0, c.sw1}) {
    EXPECT_EQ(mgr.switch_cac(sw).connection_count(), 0u);
    EXPECT_TRUE(mgr.switch_cac(sw).state_consistent());
    EXPECT_TRUE(mgr.switch_cac(sw).bandwidth_conserved());
  }
}

TEST(SignalingFaults, LostConnectedIsRecoveredByRetransmission) {
  Chain c;
  ConnectionManager mgr(c.topo, c.params());
  FaultInjector faults(1);
  faults.drop_nth(SignalingMessageType::kConnected, 1);
  SignalingEngine engine(mgr, SignalingEngine::Timers{}, &faults);

  const ConnectionId id =
      engine.initiate(cbr_request(0.5), Route{c.acc0, c.l01, c.l12});
  engine.run();

  const auto outcome = engine.outcome(id);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->connected);
  EXPECT_EQ(engine.counters().retransmits, 1u);
  EXPECT_EQ(engine.counters().lost_to_faults, 1u);
  EXPECT_EQ(mgr.connection_count(), 1u);
  // Adoption made the recovered reservation chain permanent.
  for (const NodeId sw : {c.sw0, c.sw1}) {
    EXPECT_EQ(mgr.switch_cac(sw).lease_expiry(id),
              SwitchCac::kPermanentLease);
  }
  EXPECT_TRUE(mgr.reclaim(1e18).orphans.empty());
}

TEST(SignalingFaults, LostUpstreamRejectIsRetriedAndFullyReleased) {
  // Deadline rejections originate at the destination and release hop by
  // hop on the way back.  Dropping the REJECT mid-walk strands the
  // upstream reservation; the retransmitted SETUP re-walks (renewing the
  // surviving lease, recommitting the released hop) and the second
  // rejection cascade completes.
  Chain c;
  auto params = c.params();
  params.guarantee = GuaranteeMode::kAdvertised;
  ConnectionManager mgr(c.topo, params);
  FaultInjector faults(1);
  faults.drop_nth(SignalingMessageType::kReject, 2);
  SignalingEngine engine(mgr, SignalingEngine::Timers{}, &faults);

  const ConnectionId id = engine.initiate(cbr_request(0.5, /*deadline=*/10.0),
                                          Route{c.acc0, c.l01, c.l12});
  engine.run();

  const auto outcome = engine.outcome(id);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->connected);
  EXPECT_NE(outcome->reason.find("deadline"), std::string::npos);
  EXPECT_EQ(engine.counters().retransmits, 1u);
  EXPECT_EQ(engine.counters().rejects_by_reason.at(RejectCode::kDeadline),
            1u);
  EXPECT_EQ(mgr.connection_count(), 0u);
  expect_no_reservations(mgr, c);
}

TEST(SignalingFaults, DuplicateSetupAfterRejectLeaksNothing) {
  Chain c;
  ConnectionManager mgr(c.topo, c.params());
  FaultInjector faults(1);
  // SETUPs 1-3 walk the first (admitted) connection; the 4th is the
  // second connection's initial SETUP, which sw0 will reject.
  faults.duplicate_nth(SignalingMessageType::kSetup, 4);
  SignalingEngine engine(mgr, SignalingEngine::Timers{}, &faults);

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
  // The duplicate either re-ran the (idempotent) check while the attempt
  // was live or arrived after the outcome and was dropped as stale; both
  // paths commit nothing.
  EXPECT_GE(engine.counters().stale_dropped, 1u);
  EXPECT_EQ(mgr.connection_count(), 1u);
  EXPECT_EQ(mgr.switch_cac(c.sw0).connection_ids(),
            (std::vector<ConnectionId>{first}));
  EXPECT_EQ(mgr.switch_cac(c.sw1).connection_ids(),
            (std::vector<ConnectionId>{first}));
  EXPECT_TRUE(mgr.switch_cac(c.sw0).state_consistent());
}

TEST(SignalingFaults, LostRejectAndReleaseFallBackToLeaseReclaim) {
  // Every REJECT and RELEASE is destroyed: the retry budget runs out, the
  // attempt times out, and the committed hop reservations survive only as
  // leases — reclaim() is the backstop that returns the bandwidth.
  Chain c;
  auto params = c.params();
  params.guarantee = GuaranteeMode::kAdvertised;
  ConnectionManager mgr(c.topo, params);
  FaultInjector faults(1);
  for (std::size_t n = 1; n <= 20; ++n) {
    faults.drop_nth(SignalingMessageType::kReject, n);
    faults.drop_nth(SignalingMessageType::kRelease, n);
  }
  SignalingEngine::Timers timers;
  timers.setup_rto = 8;
  timers.max_retries = 1;
  timers.lease = 64;
  SignalingEngine engine(mgr, timers, &faults);

  const ConnectionId id = engine.initiate(cbr_request(0.5, /*deadline=*/10.0),
                                          Route{c.acc0, c.l01, c.l12});
  engine.run();

  const auto outcome = engine.outcome(id);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->connected);
  EXPECT_NE(outcome->reason.find("timed out"), std::string::npos);
  EXPECT_EQ(engine.counters().timeouts, 1u);
  EXPECT_EQ(engine.counters().releases_sent, 1u);
  EXPECT_EQ(engine.pending_messages(), 0u);
  // The orphaned reservations are still committed, under finite leases.
  EXPECT_TRUE(mgr.switch_cac(c.sw0).contains(id));
  EXPECT_TRUE(mgr.switch_cac(c.sw1).contains(id));

  const auto swept =
      mgr.reclaim(static_cast<double>(engine.now() + timers.lease) + 1.0);
  EXPECT_EQ(swept.orphans, (std::vector<ConnectionId>{id}));
  EXPECT_EQ(swept.reservations_reclaimed, 2u);
  EXPECT_EQ(mgr.orphans_reclaimed(), 1u);
  expect_no_reservations(mgr, c);
}

TEST(SignalingFaults, SwitchOutageTimesOutAndReleasesUpstream) {
  Chain c;
  ConnectionManager mgr(c.topo, c.params());
  FaultInjector faults(1);
  faults.schedule_node_outage(c.sw1, 0, 100000);
  SignalingEngine::Timers timers;
  timers.setup_rto = 4;
  timers.max_retries = 2;
  SignalingEngine engine(mgr, timers, &faults);

  const ConnectionId id =
      engine.initiate(cbr_request(0.5), Route{c.acc0, c.l01, c.l12});
  engine.run();

  const auto outcome = engine.outcome(id);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->connected);
  EXPECT_EQ(engine.counters().retransmits, 2u);
  EXPECT_EQ(engine.counters().timeouts, 1u);
  EXPECT_EQ(engine.counters().rejects_by_reason.at(RejectCode::kTimeout),
            1u);
  // Every walk committed sw0 and died at the downed sw1; the RELEASE walk
  // freed sw0 before itself dying there.
  EXPECT_EQ(engine.counters().released_hops, 1u);
  EXPECT_EQ(faults.counters().failed_component_losses, 4u);
  EXPECT_EQ(mgr.connection_count(), 0u);
  expect_no_reservations(mgr, c);
}

TEST(SignalingFaults, ReleaseTearsDownEstablishedConnection) {
  Chain c;
  ConnectionManager mgr(c.topo, c.params());
  SignalingEngine engine(mgr);
  const ConnectionId id =
      engine.initiate(cbr_request(0.5), Route{c.acc0, c.l01, c.l12});
  engine.run();
  ASSERT_TRUE(engine.outcome(id)->connected);
  ASSERT_EQ(mgr.connection_count(), 1u);

  EXPECT_TRUE(engine.release(id));
  EXPECT_FALSE(engine.release(id));  // already releasing
  engine.run();

  EXPECT_EQ(mgr.connection_count(), 0u);
  EXPECT_EQ(mgr.teardowns(TeardownReason::kRelease), 1u);
  EXPECT_EQ(engine.counters().released_hops, 2u);
  EXPECT_FALSE(engine.release(id));  // gone
  expect_no_reservations(mgr, c);
}

TEST(SignalingFaults, LostReleaseRetiresAndCanBeRetried) {
  Chain c;
  ConnectionManager mgr(c.topo, c.params());
  FaultInjector faults(1);
  faults.drop_nth(SignalingMessageType::kRelease, 2);  // the walk's 2nd hop
  SignalingEngine engine(mgr, SignalingEngine::Timers{}, &faults);
  const ConnectionId id =
      engine.initiate(cbr_request(0.5), Route{c.acc0, c.l01, c.l12});
  engine.run();
  ASSERT_TRUE(engine.outcome(id)->connected);

  const Tick started = engine.now();
  ASSERT_TRUE(engine.release(id));
  EXPECT_FALSE(engine.release(id));  // in progress
  EXPECT_FALSE(engine.modify(id, cbr_request(0.25)));
  EXPECT_EQ(engine.releases_in_flight(), 1u);
  engine.run();

  // The walk freed sw0 and died on its way to sw1.  Its bookkeeping
  // retired at the horizon; the connection is still listed.
  EXPECT_EQ(engine.now(), started + engine.release_horizon(2));
  EXPECT_EQ(engine.counters().released_hops, 1u);
  EXPECT_EQ(engine.counters().releases_retired, 1u);
  EXPECT_EQ(engine.releases_in_flight(), 0u);
  EXPECT_TRUE(mgr.connections().contains(id));
  EXPECT_TRUE(mgr.switch_cac(c.sw1).contains(id));

  // The retry walks the route again and completes the teardown.
  EXPECT_TRUE(engine.release(id));
  engine.run();
  EXPECT_EQ(mgr.connection_count(), 0u);
  EXPECT_EQ(mgr.teardowns(TeardownReason::kRelease), 1u);
  EXPECT_EQ(engine.counters().released_hops, 2u);
  EXPECT_EQ(engine.counters().releases_sent, 2u);
  EXPECT_EQ(engine.counters().releases_retired, 1u);
  EXPECT_EQ(engine.releases_in_flight(), 0u);
  EXPECT_FALSE(engine.release(id));  // gone
  expect_no_reservations(mgr, c);
}

// Retirement must never cut a delivered walk short: a RELEASE that every
// hop delays by the fault layer's maximum lands exactly on its horizon,
// and still completes.
TEST(SignalingFaults, MaximallyDelayedReleaseStillCompletes) {
  Chain c;
  ConnectionManager mgr(c.topo, c.params());
  FaultProfile profile;
  profile.delay_probability = 1.0;  // every message...
  profile.max_delay = 1;            // ...delayed by exactly the maximum
  profile.max_jitter = 1;
  FaultInjector faults(1, profile);
  SignalingEngine::Timers timers;
  timers.hop_latency = 2;
  SignalingEngine engine(mgr, timers, &faults);
  const ConnectionId id =
      engine.initiate(cbr_request(0.5), Route{c.acc0, c.l01, c.l12});
  engine.run();
  ASSERT_TRUE(engine.outcome(id)->connected);

  const Tick started = engine.now();
  ASSERT_TRUE(engine.release(id));
  Tick last_release = 0;
  while (engine.step()) {
    if (engine.trace().back().type == SignalingMessageType::kRelease) {
      last_release = engine.now();
    }
  }
  EXPECT_EQ(engine.release_horizon(2), 2 * (timers.hop_latency + 1));
  EXPECT_EQ(last_release, started + engine.release_horizon(2));
  EXPECT_EQ(engine.counters().releases_retired, 0u);
  EXPECT_EQ(engine.counters().released_hops, 2u);
  EXPECT_EQ(mgr.teardowns(TeardownReason::kRelease), 1u);
  EXPECT_EQ(mgr.connection_count(), 0u);
  expect_no_reservations(mgr, c);
}

TEST(SignalingFaults, ValidationFailuresBurnNoIdAndLeaveNoResidue) {
  Chain c;
  ConnectionManager mgr(c.topo, c.params());
  SignalingEngine engine(mgr);

  EXPECT_THROW(engine.initiate(cbr_request(0.5), Route{c.l12, c.l01}),
               std::invalid_argument);
  QosRequest bad_priority = cbr_request(0.5);
  bad_priority.priority = 7;  // params().priorities == 1
  EXPECT_THROW(engine.initiate(bad_priority, Route{c.acc0, c.l01, c.l12}),
               std::invalid_argument);

  // No message was queued, no timer armed, no trace entry produced...
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(engine.pending_messages(), 0u);
  EXPECT_TRUE(engine.trace().empty());
  // ...and the next valid setup gets the very first id.
  const ConnectionId id =
      engine.initiate(cbr_request(0.5), Route{c.acc0, c.l01, c.l12});
  EXPECT_EQ(id, 1u);
  engine.run();
  EXPECT_TRUE(engine.outcome(id)->connected);
}

TEST(SignalingFaults, SameSeedReplaysIdenticalProtocolTrace) {
  FaultProfile profile;
  profile.drop_probability = 0.25;
  profile.duplicate_probability = 0.2;
  profile.delay_probability = 0.2;
  profile.reorder_probability = 0.2;
  SignalingEngine::Timers timers;
  timers.setup_rto = 8;
  timers.max_retries = 2;
  timers.lease = 64;

  auto storm = [&](std::uint64_t seed, std::vector<SignalingMessage>& trace,
                   std::size_t& connected) {
    Chain c;
    ConnectionManager mgr(c.topo, c.params());
    FaultInjector faults(seed, profile);
    SignalingEngine engine(mgr, timers, &faults);
    for (const double rate : {0.3, 0.4, 0.2}) {
      engine.initiate(cbr_request(rate), Route{c.acc0, c.l01, c.l12});
      engine.step();
    }
    engine.run();
    // The storm stays far below the trace window, so the retained trace
    // is every message the engine processed.
    trace.assign(engine.trace().begin(), engine.trace().end());
    ASSERT_EQ(trace.size(), engine.counters().messages_processed);
    connected = mgr.connection_count();
  };

  std::vector<SignalingMessage> trace_a;
  std::vector<SignalingMessage> trace_b;
  std::size_t connected_a = 0;
  std::size_t connected_b = 0;
  storm(99, trace_a, connected_a);
  storm(99, trace_b, connected_b);

  EXPECT_EQ(connected_a, connected_b);
  ASSERT_EQ(trace_a.size(), trace_b.size());
  for (std::size_t i = 0; i < trace_a.size(); ++i) {
    EXPECT_EQ(trace_a[i].type, trace_b[i].type) << i;
    EXPECT_EQ(trace_a[i].id, trace_b[i].id) << i;
    EXPECT_EQ(trace_a[i].hop_index, trace_b[i].hop_index) << i;
    EXPECT_EQ(trace_a[i].attempt, trace_b[i].attempt) << i;
  }
}

}  // namespace
}  // namespace rtcac
