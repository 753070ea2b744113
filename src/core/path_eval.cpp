// rtcac/core/path_eval.cpp

#include "core/path_eval.h"

#include <sstream>

#include "core/stream_ops.h"
#include "util/contract.h"

namespace rtcac {

const char* to_string(RejectCode code) noexcept {
  switch (code) {
    case RejectCode::kNone:
      return "none";
    case RejectCode::kPriority:
      return "priority";
    case RejectCode::kAdmission:
      return "admission";
    case RejectCode::kDeadline:
      return "deadline";
    case RejectCode::kTimeout:
      return "timeout";
    case RejectCode::kNoRoute:
      return "no-route";
  }
  return "?";
}

namespace {

/// The one SwitchCheckResult -> HopVerdict conversion, shared by the
/// live BitstreamPoint::check and the snapshot check so the two paths
/// cannot drift (same bound selection, same detail string move).
HopVerdict to_bitstream_verdict(SwitchCheckResult result, double advertised) {
  HopVerdict verdict;
  verdict.admitted = result.admitted;
  verdict.bound = result.admitted ? result.bound_at_priority.value() : 0.0;
  verdict.advertised = advertised;
  verdict.detail = std::move(result.reason);
  return verdict;
}

/// Immutable snapshot of one SwitchCac out-port: the exported sections
/// plus the shared per-point check algorithm (core/point_snapshot.h) —
/// decision- and string-identical to the live check by construction.
class BitstreamPointSnapshot final : public PointSnapshot {
 public:
  explicit BitstreamPointSnapshot(
      std::shared_ptr<const BasicPointSections<double>> sections)
      : sections_(std::move(sections)) {}

  [[nodiscard]] HopVerdict check(std::size_t in_port, Priority priority,
                                 const std::any& arrival) const override {
    RTCAC_REQUIRE(in_port < sections_->in_ports &&
                      priority < sections_->sections.size(),
                  "SwitchCac: port or priority out of range");
    const auto& stream = std::any_cast<const BitStream&>(arrival);
    SwitchCheckResult result = check_point_view<double>(
        sections_->view(), sections_->sections.size(), sections_->out_port,
        in_port, priority, stream);
    return to_bitstream_verdict(std::move(result),
                                sections_->sections[priority]->advertised);
  }

  [[nodiscard]] const BasicPointSections<double>& sections() const noexcept {
    return *sections_;
  }

 private:
  std::shared_ptr<const BasicPointSections<double>> sections_;
};

/// PolicyCac adapter over the paper's SwitchCac check (Alg. 4.1).
class BitstreamPoint final : public PolicyCac {
 public:
  explicit BitstreamPoint(const PointConfig& config)
      : cac_(SwitchCac::Config{config.in_ports, config.out_ports,
                               config.priorities, config.advertised_bound,
                               config.coalesce_budget}) {}

  [[nodiscard]] double advertised(std::size_t out_port,
                                  Priority priority) const override {
    return cac_.advertised(out_port, priority);
  }

  [[nodiscard]] std::any prepare(const TrafficDescriptor& traffic,
                                 double cdv) const override {
    return std::any(PathEvaluator::bitstream_arrival(traffic, cdv));
  }

  [[nodiscard]] HopVerdict check(std::size_t in_port, std::size_t out_port,
                                 Priority priority,
                                 const std::any& arrival) const override {
    const auto& stream = std::any_cast<const BitStream&>(arrival);
    SwitchCheckResult result = cac_.check(in_port, out_port, priority, stream);
    return to_bitstream_verdict(std::move(result),
                                cac_.advertised(out_port, priority));
  }

  [[nodiscard]] std::shared_ptr<const PointSnapshot> export_point_snapshot(
      std::size_t out_port, const PointSnapshot* previous,
      std::span<const std::size_t> stale_priorities) const override {
    // The contract guarantees `previous` came from this point's own
    // export (same policy, same out-port), so the downcast is safe.
    const auto* prev = static_cast<const BitstreamPointSnapshot*>(previous);
    return std::make_shared<BitstreamPointSnapshot>(cac_.export_point_sections(
        out_port, prev != nullptr ? &prev->sections() : nullptr,
        stale_priorities));
  }

  [[nodiscard]] std::optional<std::vector<std::size_t>> dirty_queues()
      const override {
    return cac_.dirty_queue_keys();
  }

  void add(ConnectionId id, std::size_t in_port, std::size_t out_port,
           Priority priority, const std::any& arrival,
           double lease_expiry) override {
    cac_.add(id, in_port, out_port, priority,
             std::any_cast<const BitStream&>(arrival), lease_expiry);
  }

  bool remove(ConnectionId id) override { return cac_.remove(id); }
  void rekey(ConnectionId from, ConnectionId to, std::size_t in_port,
             std::size_t out_port, Priority priority,
             const std::any& /*arrival*/, double lease_expiry) override {
    // The leaf committed under `from` is this arrival: it stays in place.
    cac_.rekey(from, to, in_port, out_port, priority, lease_expiry);
  }
  std::size_t remove_many(std::span<const ConnectionId> ids) override {
    return cac_.remove_many(ids);
  }
  [[nodiscard]] bool contains(ConnectionId id) const override {
    return cac_.contains(id);
  }
  bool renew_lease(ConnectionId id, double lease_expiry) override {
    return cac_.renew_lease(id, lease_expiry);
  }
  bool make_permanent(ConnectionId id) override {
    return cac_.make_permanent(id);
  }
  std::vector<ConnectionId> reclaim(double now) override {
    return cac_.reclaim(now);
  }
  [[nodiscard]] std::optional<double> computed_bound(
      std::size_t out_port, Priority priority) const override {
    return cac_.computed_bound(out_port, priority);
  }
  [[nodiscard]] std::size_t connection_count() const override {
    return cac_.connection_count();
  }
  void prime() const override { cac_.prime_caches(); }
  [[nodiscard]] bool state_consistent() const override {
    return cac_.state_consistent();
  }
  [[nodiscard]] bool bandwidth_conserved() const override {
    return cac_.bandwidth_conserved();
  }
  [[nodiscard]] bool cache_coherent() const override {
    return cac_.cache_coherent();
  }
  [[nodiscard]] const SwitchCac* bitstream() const noexcept override {
    return &cac_;
  }

 private:
  SwitchCac cac_;
};

}  // namespace

std::unique_ptr<PolicyCac> BitstreamCacPolicy::make_point(
    const PointConfig& config) const {
  return std::make_unique<BitstreamPoint>(config);
}

const BitstreamCacPolicy& BitstreamCacPolicy::instance() noexcept {
  static const BitstreamCacPolicy policy;
  return policy;
}

double PathEvaluator::accumulated_cdv(
    std::span<const double> upstream_bounds) const {
  return accumulate_cdv(params_.cdv_policy, upstream_bounds);
}

double PathEvaluator::cdv_before(std::span<const Hop> hops,
                                 std::size_t hop_index,
                                 Priority priority) const {
  RTCAC_REQUIRE(hop_index <= hops.size(),
                "PathEvaluator::cdv_before: hop index out of range");
  std::vector<double> upstream;
  upstream.reserve(hop_index);
  for (std::size_t h = 0; h < hop_index; ++h) {
    upstream.push_back(hops[h].cac->advertised(hops[h].out_port, priority));
  }
  return accumulated_cdv(upstream);
}

BitStream PathEvaluator::bitstream_arrival(const TrafficDescriptor& traffic,
                                           double cdv) {
  return delay(traffic.to_bitstream(), cdv);
}

PathEvaluator::HopEvaluation PathEvaluator::evaluate_hop(
    std::span<const Hop> hops, std::size_t hop_index,
    const QosRequest& request) const {
  RTCAC_REQUIRE(hop_index < hops.size(),
                "PathEvaluator::evaluate_hop: hop index out of range");
  const Hop& hop = hops[hop_index];
  RTCAC_REQUIRE(hop.cac != nullptr, "PathEvaluator: hop has no policy state");
  const double cdv = cdv_before(hops, hop_index, request.priority);
  HopEvaluation eval;
  eval.arrival = hop.cac->prepare(request.traffic, cdv);
  eval.verdict =
      hop.cac->check(hop.in_port, hop.out_port, request.priority, eval.arrival);
  return eval;
}

void PathEvaluator::commit_hop(const Hop& hop, ConnectionId id,
                               Priority priority, const std::any& arrival,
                               double lease_expiry) {
  RTCAC_REQUIRE(hop.cac != nullptr, "PathEvaluator: hop has no policy state");
  hop.cac->add(id, hop.in_port, hop.out_port, priority, arrival, lease_expiry);
}

double PathEvaluator::promised(double e2e_bound, double e2e_advertised) const {
  return params_.guarantee == GuaranteeMode::kAdvertised ? e2e_advertised
                                                         : e2e_bound;
}

bool PathEvaluator::deadline_met(double e2e_bound, double e2e_advertised,
                                 double deadline) const {
  return !(promised(e2e_bound, e2e_advertised) > deadline);
}

RejectReason PathEvaluator::priority_rejection() {
  RejectReason reason;
  reason.code = RejectCode::kPriority;
  reason.detail = "priority out of range";
  return reason;
}

RejectReason PathEvaluator::no_route_rejection() {
  RejectReason reason;
  reason.code = RejectCode::kNoRoute;
  reason.detail = "no route avoiding the failed set";
  return reason;
}

RejectReason PathEvaluator::hop_rejection(std::size_t hop,
                                          std::string_view point_name,
                                          std::string_view detail) {
  RejectReason reason;
  reason.hop = hop;
  reason.code = RejectCode::kAdmission;
  std::ostringstream text;
  text << "rejected at " << point_name << ": " << detail;
  reason.detail = text.str();
  return reason;
}

RejectReason PathEvaluator::deadline_rejection(std::size_t hop_count,
                                               double e2e_bound,
                                               double e2e_advertised,
                                               double deadline) const {
  if (deadline_met(e2e_bound, e2e_advertised, deadline)) {
    return {};
  }
  RejectReason reason;
  reason.hop = hop_count;
  reason.code = RejectCode::kDeadline;
  std::ostringstream text;
  text << "end-to-end bound " << promised(e2e_bound, e2e_advertised)
       << " exceeds deadline " << deadline;
  reason.detail = text.str();
  return reason;
}

PathEvaluator::Decision PathEvaluator::evaluate(
    std::span<const Hop> hops, const QosRequest& request) const {
  Decision decision;
  if (!priority_valid(request.priority)) {
    decision.reject = priority_rejection();
    return decision;
  }
  decision.hop_bounds.reserve(hops.size());
  decision.arrivals.reserve(hops.size());
  for (std::size_t h = 0; h < hops.size(); ++h) {
    HopEvaluation eval = evaluate_hop(hops, h, request);
    if (!eval.verdict.admitted) {
      Decision rejected;
      rejected.reject = hop_rejection(h, hops[h].name, eval.verdict.detail);
      return rejected;
    }
    decision.hop_bounds.push_back(eval.verdict.bound);
    decision.e2e_bound += eval.verdict.bound;
    decision.e2e_advertised += eval.verdict.advertised;
    decision.arrivals.push_back(std::move(eval.arrival));
  }
  decision.reject =
      deadline_rejection(hops.size(), decision.e2e_bound,
                         decision.e2e_advertised, request.deadline);
  if (decision.reject.rejected()) {
    Decision rejected;
    rejected.reject = std::move(decision.reject);
    return rejected;
  }
  decision.admitted = true;
  return decision;
}

void PathEvaluator::commit(std::span<const Hop> hops, ConnectionId id,
                           const QosRequest& request,
                           std::span<const std::any> arrivals,
                           double lease_expiry) const {
  RTCAC_REQUIRE(arrivals.size() == hops.size(),
                "PathEvaluator::commit: arrival/hop count mismatch");
  for (std::size_t h = 0; h < hops.size(); ++h) {
    commit_hop(hops[h], id, request.priority, arrivals[h], lease_expiry);
  }
}

// --- DeltaTransaction --------------------------------------------------

PathEvaluator::Decision PathEvaluator::evaluate_delta(
    const DeltaTransaction& txn) const {
  if (txn.acquire.empty()) {
    // Pure release: nothing to validate — dropping load cannot violate
    // any bound already promised.
    Decision decision;
    decision.admitted = true;
    return decision;
  }
  RTCAC_REQUIRE(txn.request != nullptr,
                "DeltaTransaction: acquire side needs a descriptor");
  // The ordinary walk *is* the delta check: the release side's
  // reservations are still part of every queueing point's load, so the
  // verdict covers the combined old+new state.
  return evaluate(txn.acquire, *txn.request);
}

void PathEvaluator::commit_delta(const DeltaTransaction& txn,
                                 std::span<const std::any> arrivals) const {
  if (txn.acquire.empty()) {
    release_path(txn.release, txn.id);
    return;
  }
  RTCAC_REQUIRE(txn.request != nullptr,
                "DeltaTransaction: acquire side needs a descriptor");
  if (txn.release.empty()) {
    commit(txn.acquire, txn.id, *txn.request, arrivals, txn.lease_expiry);
    return;
  }
  RTCAC_REQUIRE(
      txn.provisional != kInvalidConnection && txn.provisional != txn.id,
      "DeltaTransaction: both-sided transaction needs a fresh provisional id");
  commit_delta_hops(txn.release, txn.acquire, txn.id, txn.provisional,
                    txn.request->priority, arrivals, txn.lease_expiry);
}

PathEvaluator::Decision PathEvaluator::execute(
    const DeltaTransaction& txn) const {
  Decision decision = evaluate_delta(txn);
  if (decision.admitted) {
    commit_delta(txn, decision.arrivals);
  }
  return decision;
}

void PathEvaluator::commit_delta_hops(std::span<const Hop> release,
                                      std::span<const Hop> acquire,
                                      ConnectionId id,
                                      ConnectionId provisional,
                                      Priority priority,
                                      std::span<const std::any> arrivals,
                                      double lease_expiry) {
  RTCAC_REQUIRE(arrivals.size() == acquire.size(),
                "DeltaTransaction: arrival/hop count mismatch");
  // Make before break: the acquire side goes in first, under the
  // provisional id, while the release side is still committed.
  for (std::size_t h = 0; h < acquire.size(); ++h) {
    commit_hop(acquire[h], provisional, priority, arrivals[h], lease_expiry);
  }
  finalize_delta(release, acquire, id, provisional, priority, arrivals,
                 lease_expiry);
}

void PathEvaluator::finalize_delta(std::span<const Hop> release,
                                   std::span<const Hop> acquire,
                                   ConnectionId id, ConnectionId provisional,
                                   Priority priority,
                                   std::span<const std::any> arrivals,
                                   double lease_expiry) {
  // Break: the provisional reservations already protect the connection,
  // so there is no zero-reservation window.
  release_path(release, id);
  rebind_hops(acquire, provisional, id, priority, arrivals, lease_expiry);
}

std::size_t PathEvaluator::release_path(std::span<const Hop> hops,
                                        ConnectionId id) {
  std::size_t released = 0;
  for (const Hop& hop : hops) {
    RTCAC_REQUIRE(hop.cac != nullptr, "PathEvaluator: hop has no policy state");
    if (hop.cac->remove(id)) ++released;
  }
  return released;
}

PathEvaluator::Decision PathEvaluator::admit_delta(
    std::span<const Hop> hops, ConnectionId provisional_id,
    const QosRequest& request, double lease_expiry) const {
  DeltaTransaction txn;
  txn.acquire = hops;
  txn.id = provisional_id;
  txn.request = &request;
  txn.lease_expiry = lease_expiry;
  return execute(txn);
}

void PathEvaluator::rebind(std::span<const Hop> hops,
                           ConnectionId provisional_id, ConnectionId final_id,
                           const QosRequest& request,
                           std::span<const std::any> arrivals,
                           double lease_expiry) const {
  rebind_hops(hops, provisional_id, final_id, request.priority, arrivals,
              lease_expiry);
}

void PathEvaluator::rebind_hops(std::span<const Hop> hops,
                                ConnectionId provisional_id,
                                ConnectionId final_id, Priority priority,
                                std::span<const std::any> arrivals,
                                double lease_expiry) {
  RTCAC_REQUIRE(arrivals.size() == hops.size(),
                "PathEvaluator::rebind: arrival/hop count mismatch");
  for (std::size_t h = 0; h < hops.size(); ++h) {
    RTCAC_ASSERT(
        hops[h].cac != nullptr && hops[h].cac->contains(provisional_id),
        "PathEvaluator::rebind: provisional reservation missing");
    hops[h].cac->rekey(provisional_id, final_id, hops[h].in_port,
                       hops[h].out_port, priority, arrivals[h], lease_expiry);
  }
}

}  // namespace rtcac
