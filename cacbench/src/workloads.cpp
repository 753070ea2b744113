#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "core/switch_cac.h"
#include "net/admission_engine.h"
#include "net/fault_injector.h"
#include "net/signaling.h"
#include "rtnet/cyclic.h"
#include "util/xorshift.h"

namespace cacbench {

using rtcac::AdmissionEngine;
using rtcac::ConnectionId;
using rtcac::ConnectionManager;
using rtcac::Priority;
using rtcac::QosRequest;
using rtcac::RejectCode;
using rtcac::Rtnet;
using rtcac::SignalingEngine;
using rtcac::Xorshift;

namespace {

constexpr std::size_t kRingNodes = 16;
constexpr std::size_t kTerminals = 16;
constexpr std::size_t kMaxRingHops = 8;
constexpr Priority kPriorities = 4;
/// One request in eight asks for this end-to-end bound (cell times); it
/// is below what most multi-hop routes can promise, so those walks run
/// every hop check and are then mostly refused at the deadline split.
constexpr double kTightDeadline = 32;
constexpr double kLooseDeadline = 1e7;
constexpr std::size_t kChecksPerSetup = 9;

/// Verdicts per second of timed section, as measured on the reference
/// machine (README.md).  --seconds is turned into a fixed op count with
/// these, so every count repeats exactly for a seed.
constexpr double kChurnRate = 15000;
constexpr double kProbeRate = 18000;
constexpr double kSignalingRate = 12500;

constexpr std::uint64_t kFaultSeedSalt = 0xFA17FA17FA17FA17ULL;

std::uint64_t fnv(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

Request random_request(Xorshift& rng, const Rtnet& net, bool cbr) {
  Request request;
  const std::size_t node = rng.below(kRingNodes);
  const std::size_t terminal = rng.below(kTerminals);
  const std::size_t hops = 1 + rng.below(kMaxRingHops);
  if (rng.below(2) == 0) {
    request.route =
        net.unicast_route(node, terminal, (node + hops) % kRingNodes);
  } else {
    request.route = net.unicast_route_ccw(
        node, terminal, (node + kRingNodes - hops) % kRingNodes);
  }
  request.hops = static_cast<std::uint32_t>(hops);
  request.qos.priority = static_cast<Priority>(rng.below(kPriorities));
  if (cbr) {
    // RTnet cyclic service (Table 1): a terminal owning 1/256..8/256 of
    // one class's shared memory.
    const auto& cls = rtcac::standard_cyclic_classes()[rng.below(3)];
    request.qos.traffic =
        cls.cbr_contract(static_cast<double>(1 + rng.below(8)) / 256.0);
  } else {
    const double scr = static_cast<double>(1 + rng.below(6)) / 2048.0;
    const double pcr = scr * static_cast<double>(2 + rng.below(6));
    request.qos.traffic = rtcac::TrafficDescriptor::vbr(
        pcr, scr, static_cast<std::uint32_t>(2 + rng.below(30)));
  }
  request.qos.deadline = rng.below(8) == 0 ? kTightDeadline : kLooseDeadline;
  return request;
}

std::uint32_t draw(Xorshift& rng) {
  return static_cast<std::uint32_t>(rng() >> 32);
}

std::vector<Op> make_ops(Workload workload, Xorshift& rng, const Rtnet& net,
                         std::size_t count) {
  std::vector<Op> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Op op;
    switch (workload) {
      case Workload::kChurn:
        op.request = random_request(rng, net, false);
        break;
      case Workload::kProbe:
        op.kind = i % (kChecksPerSetup + 1) == kChecksPerSetup
                      ? Op::Kind::kSetup
                      : Op::Kind::kCheck;
        op.request = random_request(rng, net, false);
        break;
      case Workload::kSignalingLossy:
        if (rng.below(3) == 0) {
          static constexpr double kFactors[] = {0.5, 0.75, 1.25, 1.5};
          op.kind = Op::Kind::kModify;
          op.rate_factor = kFactors[rng.below(4)];
        } else {
          op.request = random_request(rng, net, true);
        }
        break;
    }
    op.draw = draw(rng);
    ops.push_back(std::move(op));
  }
  return ops;
}

void expect_true(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(what);
}

void add_arena(ArenaTotals& totals, const rtcac::SwitchCac& cac) {
  const rtcac::CacArenaStats stats = cac.arena_stats();
  totals.acquires += stats.arena_acquires;
  totals.reuses += stats.arena_reuses;
  totals.held_segments += stats.held_segments;
  totals.reservations += cac.connection_count();
}

ArenaTotals ring_arenas(const ConnectionManager& cm, const Rtnet& net) {
  ArenaTotals totals;
  for (std::size_t i = 0; i < kRingNodes; ++i) {
    add_arena(totals, cm.switch_cac(net.ring_node(i)));
  }
  return totals;
}

// --- ConnectionManager (churn, and probe's replay oracle) and
// --- AdmissionEngine (probe): one client that waits for each verdict ------

template <typename Engine>
class WaitingClient final : public Client {
  static constexpr bool kSerial = std::is_same_v<Engine, ConnectionManager>;
  static constexpr SpanName kSetupSpan =
      kSerial ? SpanName::kCmSetup : SpanName::kAeSetup;
  static constexpr SpanName kCheckSpan =
      kSerial ? SpanName::kCmCheck : SpanName::kAeCheck;
  static constexpr SpanName kTeardownSpan =
      kSerial ? SpanName::kCmTeardown : SpanName::kAeTeardown;

 public:
  WaitingClient(const Rtnet& net, const Sizes& sizes)
      : net_(net), sizes_(sizes) {}

  void setup(const OpStream& ops, const rtcac::CacPolicy& policy) override {
    live_.clear();
    engine_.reset();
    engine_ =
        std::make_unique<Engine>(net_.topology(), admission_params(), policy);
    for (const Request& request : ops.population) {
      if (live_.size() == sizes_.population) break;
      const auto result = engine_->setup(request.qos, request.route);
      if (result.accepted) live_.push_back(result.id);
    }
    expect_true(live_.size() == sizes_.population,
                "population candidates exhausted before the population "
                "was admitted");
    Recorder warm;
    run(ops.warmup, warm, nullptr);
  }

  void run(std::span<const Op> ops, Recorder& out, Tracer* tracer) override {
    for (const Op& op : ops) {
      if (tracer != nullptr) {
        tracer->set_verdict(static_cast<std::uint32_t>(out.verdicts.size()));
      }
      const Request& request = op.request;
      const std::int64_t start = now_ns();
      typename Engine::SetupResult result;
      if (op.kind == Op::Kind::kCheck) {
        const ScopedSpan span(tracer, kCheckSpan);
        result = engine_->check(request.qos, request.route);
      } else {
        const ScopedSpan span(tracer, kSetupSpan);
        result = engine_->setup(request.qos, request.route);
      }
      out.latency_ns.push_back(static_cast<double>(now_ns() - start));
      out.verdicts.push_back(
          make_verdict(op.kind, result.accepted, result.reject, request.hops));
      if (op.kind == Op::Kind::kSetup && result.accepted) {
        ConnectionId& victim = live_[op.draw % live_.size()];
        const ScopedSpan span(tracer, kTeardownSpan);
        expect_true(engine_->teardown(victim), "teardown of a live connection");
        victim = result.id;
      }
    }
  }

  void end_state_gates(GateReport& report, bool /*break_expectation*/)
      override {
    report.expect(engine_->connection_count() == sizes_.population,
                  "population stayed constant");
    if constexpr (kSerial) {
      for (const ConnectionId id : live_) {
        report.expect(engine_->connections().contains(id),
                      "every live connection is established");
      }
      for (std::size_t i = 0; i < kRingNodes; ++i) {
        const rtcac::PolicyCac& point =
            engine_->policy_point(net_.ring_node(i));
        report.expect(point.state_consistent(), "state_consistent");
        report.expect(point.bandwidth_conserved(), "bandwidth_conserved");
        report.expect(point.cache_coherent(), "cache_coherent");
      }
    } else {
      report.expect(engine_->pending_removals() == 0,
                    "no deferred removals left");
      report.expect(engine_->state_consistent(), "state_consistent");
      report.expect(engine_->bandwidth_conserved(), "bandwidth_conserved");
      report.expect(engine_->cache_coherent(), "cache_coherent");
    }
  }

  [[nodiscard]] std::optional<Verdict> oracle_verdict(
      const Op& op) const override {
    if constexpr (!kSerial) {
      return std::nullopt;
    } else {
      const Request& request = op.request;
      const Priority priority = request.qos.priority;
      const std::vector<rtcac::HopRef> hops =
          engine_->queueing_points(request.route);
      double bound = 0;
      double advertised = 0;
      for (std::size_t h = 0; h < hops.size(); ++h) {
        const rtcac::SwitchCac& cac = engine_->switch_cac(hops[h].node);
        const rtcac::BitStream arrival =
            engine_->arrival_at_hop(request.qos.traffic, hops, h, priority);
        rtcac::SwitchCheckResult result = cac.check_from_scratch(
            hops[h].in_port, hops[h].out_port, priority, arrival);
        if (!result.admitted) {
          return make_verdict(
              op.kind, false,
              rtcac::PathEvaluator::hop_rejection(
                  h, net_.topology().node(hops[h].node).name, result.reason),
              request.hops);
        }
        bound += result.bound_at_priority.value();
        advertised += cac.advertised(hops[h].out_port, priority);
      }
      const rtcac::RejectReason deadline =
          engine_->evaluator().deadline_rejection(hops.size(), bound,
                                                  advertised,
                                                  request.qos.deadline);
      return make_verdict(op.kind, !deadline.rejected(), deadline,
                          request.hops);
    }
  }

  [[nodiscard]] ArenaTotals arena_totals() const override {
    if constexpr (kSerial) {
      return ring_arenas(*engine_, net_);
    } else {
      ArenaTotals totals;
      const rtcac::ConcurrentCac& core = engine_->core();
      for (std::size_t shard = 0; shard < core.shard_count(); ++shard) {
        add_arena(totals, core.shard_state(shard));
      }
      return totals;
    }
  }

 private:
  const Rtnet& net_;
  Sizes sizes_;
  std::unique_ptr<Engine> engine_;
  std::vector<ConnectionId> live_;  // slot -> connection id
};

using CmClient = WaitingClient<ConnectionManager>;
using AeClient = WaitingClient<AdmissionEngine>;

// --- SignalingEngine: signaling_lossy -------------------------------------

rtcac::FaultProfile lossy_profile() {
  rtcac::FaultProfile profile;
  profile.drop_probability = 0.02;
  profile.duplicate_probability = 0.02;
  profile.delay_probability = 0.03;
  profile.max_delay = 8;
  profile.reorder_probability = 0.03;
  profile.max_jitter = 2;
  return profile;
}

/// The engine's default timers, except the retry budget.  Under this fault
/// profile each retransmission allowed cuts the share of requests that time
/// out about 4.5×: with the default budget of 4, runs of 187,500 requests
/// on seeds 1–3 had 18, 18 and 6 timeouts; with 6, 2, 0 and 0; with 8,
/// none.  Twelve keeps the expected count far below one per run, so every
/// request gets a verdict.  Retransmissions still cost time, which shows in
/// decision_p99_us and signaling.retransmit_ratio.
SignalingEngine::Timers lossy_timers() {
  SignalingEngine::Timers timers;
  timers.max_retries = 12;
  return timers;
}

class SignalingClient final : public Client {
 public:
  SignalingClient(const Rtnet& net, const Sizes& sizes, std::uint64_t seed)
      : net_(net), sizes_(sizes), seed_(seed) {}

  void setup(const OpStream& ops, const rtcac::CacPolicy& policy) override {
    pending_.clear();
    live_.clear();
    releases_.clear();
    seen_timeouts_ = 0;
    engine_.reset();
    faults_.reset();
    cm_.reset();
    cm_ = std::make_unique<ConnectionManager>(net_.topology(),
                                              admission_params(), policy);
    faults_ = std::make_unique<rtcac::FaultInjector>(seed_ ^ kFaultSeedSalt,
                                                     lossy_profile());
    engine_ = std::make_unique<SignalingEngine>(*cm_, lossy_timers(),
                                                faults_.get());
    // The standing population is admitted by the central manager the
    // signaling engine runs on; the warm-up then drives it through the
    // lossy control plane.
    for (const Request& request : ops.population) {
      if (live_.size() == sizes_.population) break;
      const auto result = cm_->setup(request.qos, request.route);
      if (result.accepted) {
        live_.push_back(Slot{result.id, request.qos, request.hops});
      }
    }
    expect_true(live_.size() == sizes_.population,
                "population candidates exhausted before the population "
                "was admitted");
    Recorder warm;
    run(ops.warmup, warm, nullptr);
  }

  void run(std::span<const Op> ops, Recorder& out, Tracer* tracer) override {
    std::size_t next = 0;
    while (next < ops.size() || !pending_.empty()) {
      while (pending_.size() < sizes_.in_flight && next < ops.size()) {
        submit(ops[next++], tracer);
      }
      if (tracer != nullptr) tracer->set_verdict(kSharedVerdict);
      bool stepped = false;
      {
        const ScopedSpan span(tracer, SpanName::kSigStep);
        stepped = engine_->step();
      }
      expect_true(stepped, "signaling queue drained with requests in flight");
      collect(out, tracer);
      reconcile(engine_->now(), tracer);
    }
  }

  void end_state_gates(GateReport& report, bool break_expectation) override {
    engine_->run();
    report.expect(engine_->pending_messages() == 0, "signaling quiesced");
    report.expect(pending_.empty(), "every request got an outcome");
    reconcile(std::numeric_limits<rtcac::Tick>::max(), nullptr);
    const double horizon =
        static_cast<double>(engine_->now() + engine_->timers().lease) + 1.0;
    const ConnectionManager::ReclaimResult swept = cm_->reclaim(horizon);
    std::set<ConnectionId> adopted;
    for (const auto& entry : cm_->connections()) adopted.insert(entry.first);
    for (const ConnectionId orphan : swept.orphans) {
      report.expect(!adopted.contains(orphan), "no adopted id reclaimed");
    }
    // The live slots are exactly the adopted connections.
    const std::size_t expected =
        sizes_.population + (break_expectation ? 1 : 0);
    report.expect(adopted.size() == expected, "population stayed constant");
    for (const Slot& slot : live_) {
      report.expect(adopted.contains(slot.id),
                    "every live connection is adopted");
    }
    // Zero leaks, and every adopted connection holds exactly its current
    // descriptor at every hop: one queue, its current priority, and a
    // per-queue sustained load equal to the current rates' sum.
    for (std::size_t i = 0; i < kRingNodes; ++i) {
      const rtcac::NodeId node = net_.ring_node(i);
      const rtcac::SwitchCac& cac = cm_->switch_cac(node);
      report.expect(cac.state_consistent(), "state_consistent");
      report.expect(cac.bandwidth_conserved(), "bandwidth_conserved");
      report.expect(cac.cache_coherent(), "cache_coherent");
      for (const ConnectionId id : cac.connection_ids()) {
        report.expect(adopted.contains(id), "no leaked reservation");
        report.expect(cac.lease_expiry(id) == rtcac::SwitchCac::kPermanentLease,
                      "adopted reservations are permanent");
      }
      for (std::size_t out = 0; out < cac.out_ports(); ++out) {
        for (Priority p = 0; p < cac.priorities(); ++p) {
          double rate_sum = 0;
          for (const ConnectionId id : cac.connection_ids(out, p)) {
            const auto it = cm_->connections().find(id);
            if (it == cm_->connections().end()) continue;  // counted above
            report.expect(it->second.request.priority == p,
                          "reservation under the current priority");
            rate_sum += it->second.request.traffic.scr;
          }
          const double load = cac.sustained_load(out, p);
          report.expect(std::abs(load - rate_sum) <=
                            1e-9 * std::max(1.0, rate_sum),
                        "per-queue load equals the current descriptors");
        }
      }
    }
    for (const auto& [id, record] : cm_->connections()) {
      for (const rtcac::HopRef& hop : record.hops) {
        report.expect(cm_->switch_cac(hop.node).contains(id),
                      "adopted connection holds every hop");
      }
    }
  }

  [[nodiscard]] ArenaTotals arena_totals() const override {
    return ring_arenas(*cm_, net_);
  }

  [[nodiscard]] SignalingStats signaling_stats() const override {
    const SignalingEngine::Counters& counters = engine_->counters();
    SignalingStats stats;
    stats.trace_messages = engine_->trace().size();
    stats.retransmits = counters.retransmits + counters.modify_retransmits;
    stats.attempts = submitted_;
    stats.stale_dropped = counters.stale_dropped;
    stats.releases_reconciled = reconciled_;
    return stats;
  }

 private:
  static constexpr std::uint32_t kSharedVerdict = 0xFFFFFFFFu;
  /// A RELEASE walk of an established connection takes at most
  /// hops × (hop latency + max delay + max jitter) < 100 ticks, so a
  /// connection still listed this long after release() lost its walk.
  static constexpr rtcac::Tick kReleaseGrace = 256;

  struct Slot {
    ConnectionId id = rtcac::kInvalidConnection;
    QosRequest qos;
    std::uint32_t hops = 0;
    bool modified = false;  ///< renegotiated once already
    bool busy = false;      ///< a MODIFY is in flight
  };

  struct Pending {
    Op::Kind kind = Op::Kind::kSetup;
    ConnectionId id = rtcac::kInvalidConnection;
    std::size_t slot = 0;  ///< kModify: the renegotiated slot
    QosRequest qos;
    std::uint32_t hops = 0;
    std::uint32_t draw = 0;
    std::int64_t start_ns = 0;
    rtcac::Tick start_tick = 0;
  };

  // A connection is renegotiated at most once, so the appearance of its
  // modify_outcome() is that MODIFY's verdict.  Slots are probed from the
  // op's draw, so the choice is a deterministic function of the stream.
  std::size_t pick_slot(std::uint32_t draw, bool for_modify) const {
    const std::size_t n = live_.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t slot = (draw + k) % n;
      const Slot& s = live_[slot];
      if (!s.busy && !(for_modify && s.modified)) return slot;
    }
    throw std::runtime_error("signaling: no eligible live connection");
  }

  void submit(const Op& op, Tracer* tracer) {
    if (tracer != nullptr) tracer->set_verdict(static_cast<std::uint32_t>(submitted_));
    ++submitted_;
    Pending pending;
    pending.kind = op.kind;
    pending.draw = op.draw;
    if (op.kind == Op::Kind::kModify) {
      pending.slot = pick_slot(op.draw, true);
      Slot& slot = live_[pending.slot];
      pending.id = slot.id;
      pending.hops = slot.hops;
      pending.qos = slot.qos;
      const double rate = slot.qos.traffic.pcr * op.rate_factor;
      pending.qos.traffic = rtcac::TrafficDescriptor::cbr(rate);
      slot.busy = true;
      slot.modified = true;
      pending.start_tick = engine_->now();
      pending.start_ns = now_ns();
      const ScopedSpan span(tracer, SpanName::kSigModify);
      expect_true(engine_->modify(slot.id, pending.qos),
                  "MODIFY of an idle live connection");
    } else {
      pending.qos = op.request.qos;
      pending.hops = op.request.hops;
      pending.start_tick = engine_->now();
      pending.start_ns = now_ns();
      const ScopedSpan span(tracer, SpanName::kSigInitiate);
      pending.id = engine_->initiate(op.request.qos, op.request.route);
    }
    pending_.push_back(std::move(pending));
  }

  // A step finishes at most the request whose message it handled, unless
  // a retransmission timer gave up on one; polling only those keeps the
  // client's cost per step flat while the engine's outcome maps grow.
  void collect(Recorder& out, Tracer* tracer) {
    const std::size_t timeouts = engine_->counters().timeouts;
    const bool timed_out = timeouts != seen_timeouts_;
    seen_timeouts_ = timeouts;
    const ConnectionId handled = engine_->trace().empty()
                                     ? rtcac::kInvalidConnection
                                     : engine_->trace().back().id;
    for (std::size_t i = 0; i < pending_.size();) {
      Pending& p = pending_[i];
      if (!timed_out && p.id != handled) {
        ++i;
        continue;
      }
      const std::optional<rtcac::SignalingOutcome> outcome =
          p.kind == Op::Kind::kModify ? engine_->modify_outcome(p.id)
                                      : engine_->outcome(p.id);
      if (!outcome.has_value()) {
        ++i;
        continue;
      }
      const double latency = static_cast<double>(now_ns() - p.start_ns);
      Verdict verdict =
          make_verdict(p.kind, outcome->connected, outcome->reject, p.hops);
      verdict.failed = outcome->reject.code == RejectCode::kTimeout;
      out.verdicts.push_back(verdict);
      out.latency_ns.push_back(latency);
      out.connect_ticks.push_back(
          static_cast<double>(engine_->now() - p.start_tick));
      if (p.kind == Op::Kind::kModify) {
        Slot& slot = live_[p.slot];
        slot.busy = false;
        if (outcome->connected) slot.qos = p.qos;
      } else if (outcome->connected) {
        Slot& victim = live_[pick_slot(p.draw, false)];
        if (tracer != nullptr) tracer->set_verdict(kSharedVerdict);
        const ScopedSpan span(tracer, SpanName::kSigRelease);
        expect_true(engine_->release(victim.id), "RELEASE of a live connection");
        releases_.emplace_back(engine_->now() + kReleaseGrace, victim.id);
        victim = Slot{p.id, p.qos, p.hops};
      }
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  // RELEASE of an established connection has no retransmission (see
  // docs/FAULT_TOLERANCE.md): a lost walk leaves the connection listed
  // and partly reserved.  The documented remedy is the operator's central
  // ConnectionManager::teardown, applied here once the grace period ends.
  void reconcile(rtcac::Tick now, Tracer* tracer) {
    while (!releases_.empty() && releases_.front().first <= now) {
      const ConnectionId id = releases_.front().second;
      releases_.pop_front();
      if (!cm_->connections().contains(id)) continue;  // walk completed
      if (tracer != nullptr) tracer->set_verdict(kSharedVerdict);
      const ScopedSpan span(tracer, SpanName::kCmTeardown);
      expect_true(cm_->teardown(id), "central teardown of a lost RELEASE");
      ++reconciled_;
    }
  }

  const Rtnet& net_;
  Sizes sizes_;
  std::uint64_t seed_;
  std::unique_ptr<ConnectionManager> cm_;
  std::unique_ptr<rtcac::FaultInjector> faults_;
  std::unique_ptr<SignalingEngine> engine_;
  std::vector<Slot> live_;
  std::vector<Pending> pending_;  // submission order
  /// (grace deadline, id) of every RELEASE sent, oldest first.
  std::deque<std::pair<rtcac::Tick, ConnectionId>> releases_;
  std::size_t submitted_ = 0;
  std::size_t reconciled_ = 0;
  std::size_t seen_timeouts_ = 0;
};

}  // namespace

const char* to_string(Workload workload) noexcept {
  switch (workload) {
    case Workload::kChurn: return "churn";
    case Workload::kProbe: return "probe";
    case Workload::kSignalingLossy: return "signaling_lossy";
  }
  return "?";
}

rtcac::ConnectionManager::Params admission_params() {
  ConnectionManager::Params params;
  params.priorities = kPriorities;
  params.advertised_bound = 128;
  return params;
}

Sizes sizes_for(Workload workload, double seconds) {
  Sizes sizes;
  double rate = kChurnRate;
  switch (workload) {
    case Workload::kChurn:
      sizes.population = 200;
      sizes.warmup_ops = 6000;
      break;
    case Workload::kProbe:
      rate = kProbeRate;
      sizes.population = 200;
      sizes.warmup_ops = 10000;
      break;
    case Workload::kSignalingLossy:
      rate = kSignalingRate;
      sizes.population = 450;
      sizes.warmup_ops = 5000;
      sizes.in_flight = 8;
      break;
  }
  sizes.timed_ops = static_cast<std::size_t>(std::llround(seconds * rate));
  // Probe ops come in groups of nine checks and one setup.
  constexpr std::size_t kGroup = kChecksPerSetup + 1;
  sizes.timed_ops = std::max(kGroup, sizes.timed_ops / kGroup * kGroup);
  sizes.warmup_ops = sizes.warmup_ops / kGroup * kGroup;
  return sizes;
}

OpStream generate(Workload workload, const Rtnet& net, const Sizes& sizes,
                  std::uint64_t seed) {
  Xorshift rng(seed);
  OpStream stream;
  // Candidates beyond the population absorb the SETUPs it rejects.
  const std::size_t candidates = 2 * sizes.population + 64;
  stream.population.reserve(candidates);
  for (std::size_t i = 0; i < candidates; ++i) {
    stream.population.push_back(
        random_request(rng, net, workload == Workload::kSignalingLossy));
  }
  stream.warmup = make_ops(workload, rng, net, sizes.warmup_ops);
  stream.timed = make_ops(workload, rng, net, sizes.timed_ops);
  return stream;
}

Verdict make_verdict(Op::Kind kind, bool admitted,
                     const rtcac::RejectReason& reject, std::uint32_t hops) {
  Verdict verdict;
  verdict.kind = kind;
  verdict.admitted = admitted;
  verdict.code = reject.code;
  verdict.hop = reject.hop;
  verdict.reason_hash =
      fnv(kFnvBasis, reject.detail.data(), reject.detail.size());
  verdict.hops = hops;
  return verdict;
}

std::uint64_t digest(std::span<const Verdict> verdicts) {
  std::uint64_t hash = kFnvBasis;
  for (const Verdict& v : verdicts) {
    const std::uint64_t fields[] = {
        static_cast<std::uint64_t>(v.kind), v.admitted ? 1u : 0u,
        v.failed ? 1u : 0u, static_cast<std::uint64_t>(v.code),
        static_cast<std::uint64_t>(v.hop), v.reason_hash, v.hops};
    hash = fnv(hash, fields, sizeof(fields));
  }
  return hash;
}

std::unique_ptr<Client> make_client(Workload workload, const Rtnet& net,
                                    const Sizes& sizes, std::uint64_t seed) {
  switch (workload) {
    case Workload::kChurn:
      return std::make_unique<CmClient>(net, sizes);
    case Workload::kProbe:
      return std::make_unique<AeClient>(net, sizes);
    case Workload::kSignalingLossy:
      break;
  }
  return std::make_unique<SignalingClient>(net, sizes, seed);
}

void replay_gate(const Rtnet& net, const Sizes& sizes, const OpStream& ops,
                 std::span<const Verdict> timed, bool break_expectation,
                 GateReport& report) {
  CmClient oracle(net, sizes);
  oracle.setup(ops, rtcac::BitstreamCacPolicy::instance());
  Recorder replay;
  oracle.run(ops.timed, replay, nullptr);
  std::vector<Verdict> expected = std::move(replay.verdicts);
  if (break_expectation && !expected.empty()) {
    expected.front().admitted = !expected.front().admitted;
  }
  report.expect(expected.size() == timed.size(),
                "oracle replay produced one verdict per op");
  std::size_t mismatches = 0;
  std::size_t first = expected.size();
  for (std::size_t i = 0; i < std::min(expected.size(), timed.size()); ++i) {
    if (!(expected[i] == timed[i])) {
      if (mismatches++ == 0) first = i;
    }
  }
  std::ostringstream what;
  what << "verdicts identical to the ConnectionManager replay ("
       << mismatches << " differ, first at op " << first << ")";
  report.expect(mismatches == 0, what.str());
  oracle.end_state_gates(report, false);
}

}  // namespace cacbench
