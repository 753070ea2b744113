// Cross-engine equivalence property suite (ctest label "equivalence").
//
// The refactor invariant behind src/core/path_eval.h: all three admission
// paths — the serial ConnectionManager, the fault-tolerant SignalingEngine
// and the parallel sharded AdmissionEngine — are views over the SAME
// PathEvaluator + CacPolicy core, so an identical seeded operation trace
// — mixed setups, in-place renegotiations (MODIFY) and releases — must
// produce a bit-identical decision stream from each of them: the same
// verdicts, the same canonical reason strings, the same RejectReason
// codes AND the same rejecting hop indices, under every built-in policy
// (bitstream, peak, max_rate) and every replay thread count.  MODIFY in
// particular exercises the DeltaTransaction commit (release == acquire)
// of core/path_eval.h through all three drivers.
//
// Any drift here means a second hop walk grew back somewhere; the
// admission-walk lint rule (tools/rtcac_lint.py) guards the same property
// statically.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/policies.h"
#include "core/traffic.h"
#include "net/admission_engine.h"
#include "net/connection_manager.h"
#include "net/signaling.h"
#include "net/topology.h"
#include "util/xorshift.h"

namespace rtcac {
namespace {

using TraceOp = AdmissionEngine::TraceOp;
using OpOutcome = AdmissionEngine::OpOutcome;

constexpr std::size_t kSwitches = 4;
constexpr std::size_t kTermsPerSwitch = 3;
constexpr Priority kPriorities = 2;
constexpr std::size_t kOps = 160;

struct Net {
  Topology topology;
  std::vector<Route> routes;  // 1..3 queueing points each
};

// Small chain with enough terminals that routes overlap on the middle
// links; the trace drives every policy into genuine rejections.
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
      const NodeId src = net.topology.add_terminal(
          "src" + std::to_string(s) + "_" + std::to_string(t));
      access[s].push_back(net.topology.add_link(src, switches[s]));
      const NodeId dst = net.topology.add_terminal(
          "dst" + std::to_string(s) + "_" + std::to_string(t));
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
  // Tight enough that the bit-stream and max-rate checks reject within
  // the trace; peak rejects once per-link PCR sums pass 1.
  params.advertised_bound = 48.0;
  return params;
}

// Heavier than the bench generator on purpose: per-link PCR sums must
// cross 1.0 within kOps ops so even the peak policy sees rejections.
QosRequest random_request(Xorshift& rng) {
  QosRequest request;
  const double scr = static_cast<double>(1 + rng.below(8)) / 96.0;
  const double pcr = scr * static_cast<double>(2 + rng.below(4));
  request.traffic = TrafficDescriptor::vbr(
      pcr, scr, static_cast<std::uint32_t>(2 + rng.below(16)));
  request.priority = static_cast<Priority>(rng.below(kPriorities));
  // One in six deadlines tight enough to trip the end-to-end check.
  request.deadline = rng.below(6) == 0 ? 30.0 : 1e7;
  return request;
}

// Seeded mixed check/setup/modify/teardown trace (no deferred ops:
// those are an AdmissionEngine-only batching concept with no signaling
// analogue).  MODIFY targets may already be torn down — every engine
// must report those identically too.
std::vector<TraceOp> make_trace(std::uint64_t seed, const Net& net) {
  Xorshift rng(seed);
  std::vector<TraceOp> trace;
  std::vector<std::size_t> setups;
  for (std::size_t i = 0; i < kOps; ++i) {
    const std::uint64_t pick = rng.below(10);
    TraceOp op;
    if (pick < 2 && !setups.empty()) {
      op.kind = TraceOp::Kind::kTeardown;
      op.target = setups[rng.below(setups.size())];
    } else if (pick < 4 && !setups.empty()) {
      op.kind = TraceOp::Kind::kModify;
      op.target = setups[rng.below(setups.size())];
      op.request = random_request(rng);  // new descriptor, fresh priority
    } else if (pick < 7) {
      op.kind = TraceOp::Kind::kSetup;
      op.request = random_request(rng);
      op.route = net.routes[rng.below(net.routes.size())];
      setups.push_back(trace.size());
    } else {
      op.kind = TraceOp::Kind::kCheck;
      op.request = random_request(rng);
      op.route = net.routes[rng.below(net.routes.size())];
    }
    trace.push_back(std::move(op));
  }
  return trace;
}

/// The unknown-id rejection AdmissionEngine::renegotiate reports when a
/// MODIFY races the connection's teardown; the serial streams mirror it
/// so the comparison stays bit-identical.
OpOutcome unknown_modify_outcome() {
  OpOutcome outcome;
  outcome.reject.code = RejectCode::kNoRoute;
  outcome.reject.detail = "renegotiate: unknown connection id";
  outcome.reason = outcome.reject.detail;
  return outcome;
}

// --- one decision stream per engine -------------------------------------

std::vector<OpOutcome> manager_stream(const std::vector<TraceOp>& trace,
                                      const Net& net,
                                      const ConnectionManager::Params& params,
                                      const CacPolicy& policy) {
  ConnectionManager cm(net.topology, params, policy);
  std::vector<OpOutcome> outcomes(trace.size());
  std::vector<ConnectionId> ids(trace.size(), kInvalidConnection);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceOp& op = trace[i];
    switch (op.kind) {
      case TraceOp::Kind::kCheck: {
        const auto r = cm.check(op.request, op.route);
        outcomes[i] = OpOutcome{r.accepted, r.reason, r.reject};
        break;
      }
      case TraceOp::Kind::kSetup: {
        const auto r = cm.setup(op.request, op.route);
        ids[i] = r.accepted ? r.id : kInvalidConnection;
        outcomes[i] = OpOutcome{r.accepted, r.reason, r.reject};
        break;
      }
      case TraceOp::Kind::kModify: {
        const ConnectionId id = ids[op.target];
        if (id == kInvalidConnection) break;
        if (!cm.connections().contains(id)) {
          outcomes[i] = unknown_modify_outcome();
          break;
        }
        const auto r = cm.renegotiate(id, op.request);
        outcomes[i] = OpOutcome{r.accepted, r.reason, r.reject};
        break;
      }
      default: {
        const ConnectionId id = ids[op.target];
        outcomes[i].accepted = id != kInvalidConnection && cm.teardown(id);
        break;
      }
    }
  }
  return outcomes;
}

// Fault-free signaling: each setup runs the full SETUP/CONNECTED exchange
// to completion before the next op.  Checks and teardowns go through the
// engine's underlying manager — signaling only owns the setup walk.
std::vector<OpOutcome> signaling_stream(
    const std::vector<TraceOp>& trace, const Net& net,
    const ConnectionManager::Params& params, const CacPolicy& policy) {
  ConnectionManager cm(net.topology, params, policy);
  SignalingEngine signaling(cm);
  std::vector<OpOutcome> outcomes(trace.size());
  std::vector<ConnectionId> ids(trace.size(), kInvalidConnection);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceOp& op = trace[i];
    switch (op.kind) {
      case TraceOp::Kind::kCheck: {
        const auto r = cm.check(op.request, op.route);
        outcomes[i] = OpOutcome{r.accepted, r.reason, r.reject};
        break;
      }
      case TraceOp::Kind::kSetup: {
        const ConnectionId id = signaling.initiate(op.request, op.route);
        signaling.run();
        const auto outcome = signaling.outcome(id);
        if (!outcome.has_value()) {
          ADD_FAILURE() << "setup op " << i << " never resolved (fault-free "
                           "run() must settle every attempt)";
          return outcomes;
        }
        ids[i] = outcome->connected ? id : kInvalidConnection;
        outcomes[i] =
            OpOutcome{outcome->connected, outcome->reason, outcome->reject};
        break;
      }
      case TraceOp::Kind::kModify: {
        const ConnectionId id = ids[op.target];
        if (id == kInvalidConnection) break;
        if (!signaling.modify(id, op.request)) {
          outcomes[i] = unknown_modify_outcome();
          break;
        }
        signaling.run();
        const auto outcome = signaling.modify_outcome(id);
        if (!outcome.has_value()) {
          ADD_FAILURE() << "modify op " << i << " never resolved (fault-free "
                           "run() must settle every attempt)";
          return outcomes;
        }
        outcomes[i] =
            OpOutcome{outcome->connected, outcome->reason, outcome->reject};
        break;
      }
      default: {
        const ConnectionId id = ids[op.target];
        outcomes[i].accepted = id != kInvalidConnection && cm.teardown(id);
        break;
      }
    }
  }
  return outcomes;
}

void expect_identical(const std::vector<OpOutcome>& got,
                      const std::vector<OpOutcome>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].accepted, want[i].accepted) << what << " op " << i;
    EXPECT_EQ(got[i].reason, want[i].reason) << what << " op " << i;
    EXPECT_EQ(got[i].reject.code, want[i].reject.code) << what << " op " << i;
    EXPECT_EQ(got[i].reject.hop, want[i].reject.hop) << what << " op " << i;
  }
}

class CrossEngineEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(CrossEngineEquivalence, AllEnginesProduceIdenticalDecisionStreams) {
  const CacPolicy* policy = find_policy(GetParam());
  ASSERT_NE(policy, nullptr) << GetParam();
  const Net net = make_net();
  const ConnectionManager::Params params = make_params();

  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    const std::vector<TraceOp> trace = make_trace(seed, net);
    const std::vector<OpOutcome> reference =
        manager_stream(trace, net, params, *policy);

    // The trace must actually exercise rejections — including rejected
    // AND admitted renegotiations — or equivalence on the reject
    // metadata would hold vacuously.
    std::size_t rejections = 0;
    std::size_t modifies_admitted = 0;
    std::size_t modifies_rejected = 0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const OpOutcome& o = reference[i];
      if (!o.accepted && o.reject.code != RejectCode::kNone) ++rejections;
      if (trace[i].kind == TraceOp::Kind::kModify) {
        if (o.accepted) ++modifies_admitted;
        if (!o.accepted && o.reject.code != RejectCode::kNone) {
          ++modifies_rejected;
        }
      }
    }
    EXPECT_GT(rejections, 0u) << "seed " << seed << " trace too easy";
    EXPECT_GT(modifies_admitted, 0u)
        << "seed " << seed << " never admitted a MODIFY";
    EXPECT_GT(modifies_rejected, 0u)
        << "seed " << seed << " never rejected a MODIFY";

    const std::vector<OpOutcome> via_signaling =
        signaling_stream(trace, net, params, *policy);
    expect_identical(via_signaling, reference,
                     std::string(GetParam()) + " signaling seed " +
                         std::to_string(seed));

    for (const std::size_t threads : {1u, 2u, 4u}) {
      AdmissionEngine engine(net.topology, params, *policy);
      const std::vector<OpOutcome> via_replay = engine.replay(trace, threads);
      expect_identical(via_replay, reference,
                       std::string(GetParam()) + " replay t" +
                           std::to_string(threads) + " seed " +
                           std::to_string(seed));
      EXPECT_TRUE(engine.state_consistent());
      EXPECT_TRUE(engine.bandwidth_conserved());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CrossEngineEquivalence,
                         ::testing::Values("bitstream", "peak", "max_rate"));

// Params::coalesce_budget reaches every engine through the same
// PointConfig plumbing, so a coalesced trace must still produce one
// decision stream across ConnectionManager, SignalingEngine and the
// parallel replay — and, against the exact (budget 0) stream, the first
// divergence may only go in the conservative direction.
TEST_P(CrossEngineEquivalence, CoalescedBudgetReachesEveryEngineIdentically) {
  const CacPolicy* policy = find_policy(GetParam());
  ASSERT_NE(policy, nullptr) << GetParam();
  const Net net = make_net();
  ConnectionManager::Params params = make_params();
  params.coalesce_budget = 4;

  const std::vector<TraceOp> trace = make_trace(31, net);
  const std::vector<OpOutcome> reference =
      manager_stream(trace, net, params, *policy);

  const std::vector<OpOutcome> via_signaling =
      signaling_stream(trace, net, params, *policy);
  expect_identical(via_signaling, reference,
                   std::string(GetParam()) + " coalesced signaling");

  for (const std::size_t threads : {1u, 4u}) {
    AdmissionEngine engine(net.topology, params, *policy);
    expect_identical(engine.replay(trace, threads), reference,
                     std::string(GetParam()) + " coalesced replay t" +
                         std::to_string(threads));
    EXPECT_TRUE(engine.state_consistent());
    EXPECT_TRUE(engine.bandwidth_conserved());
  }

  // Up to the first divergence both runs committed identical sets, so
  // the states compared at that op are identical — and a coalesced
  // aggregate only over-estimates, so the first differing decision must
  // be a coalesced rejection of an exactly-admitted candidate.  (The
  // baselines keep no per-cell aggregates and ignore the budget, so
  // their streams may not diverge at all.)
  ConnectionManager::Params exact = make_params();
  const std::vector<OpOutcome> exact_stream =
      manager_stream(trace, net, exact, *policy);
  ASSERT_EQ(reference.size(), exact_stream.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (reference[i].accepted == exact_stream[i].accepted) continue;
    EXPECT_TRUE(exact_stream[i].accepted && !reference[i].accepted)
        << GetParam() << ": first divergence at op " << i
        << " admitted under the budget but not exactly — the coalesced "
           "check over-admitted";
    break;
  }
}

// A decorator that forwards every PolicyCac call but rekey(), as a
// tracing or metering wrapper written before rekey() existed does: its
// rebinds take PolicyCac's default remove + add through the forwards,
// where the plain bitstream point re-keys in place.  Both must decide
// every later op identically.
class ForwardingPoint final : public PolicyCac {
 public:
  explicit ForwardingPoint(std::unique_ptr<PolicyCac> inner)
      : inner_(std::move(inner)) {}

  double advertised(std::size_t out_port, Priority priority) const override {
    return inner_->advertised(out_port, priority);
  }
  std::any prepare(const TrafficDescriptor& traffic,
                   double cdv) const override {
    return inner_->prepare(traffic, cdv);
  }
  HopVerdict check(std::size_t in_port, std::size_t out_port,
                   Priority priority, const std::any& arrival) const override {
    return inner_->check(in_port, out_port, priority, arrival);
  }
  void add(ConnectionId id, std::size_t in_port, std::size_t out_port,
           Priority priority, const std::any& arrival,
           double lease_expiry) override {
    inner_->add(id, in_port, out_port, priority, arrival, lease_expiry);
  }
  bool remove(ConnectionId id) override { return inner_->remove(id); }
  std::size_t remove_many(std::span<const ConnectionId> ids) override {
    return inner_->remove_many(ids);
  }
  bool contains(ConnectionId id) const override {
    return inner_->contains(id);
  }
  bool renew_lease(ConnectionId id, double lease_expiry) override {
    return inner_->renew_lease(id, lease_expiry);
  }
  bool make_permanent(ConnectionId id) override {
    return inner_->make_permanent(id);
  }
  std::vector<ConnectionId> reclaim(double now) override {
    return inner_->reclaim(now);
  }
  std::optional<double> computed_bound(std::size_t out_port,
                                       Priority priority) const override {
    return inner_->computed_bound(out_port, priority);
  }
  std::size_t connection_count() const override {
    return inner_->connection_count();
  }
  void prime() const override { inner_->prime(); }
  std::shared_ptr<const PointSnapshot> export_point_snapshot(
      std::size_t out_port, const PointSnapshot* previous,
      std::span<const std::size_t> stale_priorities) const override {
    return inner_->export_point_snapshot(out_port, previous,
                                         stale_priorities);
  }
  std::optional<std::vector<std::size_t>> dirty_queues() const override {
    return inner_->dirty_queues();
  }
  bool state_consistent() const override {
    return inner_->state_consistent();
  }
  bool bandwidth_conserved() const override {
    return inner_->bandwidth_conserved();
  }
  bool cache_coherent() const override { return inner_->cache_coherent(); }
  const SwitchCac* bitstream() const noexcept override {
    return inner_->bitstream();
  }

 private:
  std::unique_ptr<PolicyCac> inner_;
};

class ForwardingPolicy final : public CacPolicy {
 public:
  std::string_view name() const noexcept override { return "forwarding"; }
  std::unique_ptr<PolicyCac> make_point(
      const PointConfig& config) const override {
    return std::make_unique<ForwardingPoint>(
        BitstreamCacPolicy::instance().make_point(config));
  }
};

TEST(DefaultRekey, DecoratorWithoutRekeyDecidesEveryModifyIdentically) {
  const Net net = make_net();
  const ConnectionManager::Params params = make_params();
  const ForwardingPolicy forwarding;
  const CacPolicy& bitstream = BitstreamCacPolicy::instance();
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    const std::vector<TraceOp> trace = make_trace(seed, net);
    const std::vector<OpOutcome> reference =
        manager_stream(trace, net, params, bitstream);
    std::size_t modifies_admitted = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (trace[i].kind == TraceOp::Kind::kModify && reference[i].accepted) {
        ++modifies_admitted;
      }
    }
    ASSERT_GT(modifies_admitted, 0u) << "seed " << seed;
    expect_identical(manager_stream(trace, net, params, forwarding), reference,
                     "forwarding manager seed " + std::to_string(seed));
    expect_identical(signaling_stream(trace, net, params, forwarding),
                     signaling_stream(trace, net, params, bitstream),
                     "forwarding signaling seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace rtcac
