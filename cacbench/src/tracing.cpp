#include "tracing.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

namespace cacbench {

using rtcac::ConnectionId;
using rtcac::HopVerdict;
using rtcac::PointSnapshot;
using rtcac::PolicyCac;
using rtcac::Priority;

const char* to_string(SpanName name) noexcept {
  switch (name) {
    case SpanName::kCmSetup: return "cm.setup";
    case SpanName::kCmCheck: return "cm.check";
    case SpanName::kCmTeardown: return "cm.teardown";
    case SpanName::kAeCheck: return "ae.check";
    case SpanName::kAeSetup: return "ae.setup";
    case SpanName::kAeTeardown: return "ae.teardown";
    case SpanName::kSigInitiate: return "sig.initiate";
    case SpanName::kSigModify: return "sig.modify";
    case SpanName::kSigRelease: return "sig.release";
    case SpanName::kSigStep: return "sig.step";
    case SpanName::kPrepare: return "policy.prepare";
    case SpanName::kCheck: return "policy.check";
    case SpanName::kSnapshotCheck: return "snapshot.check";
    case SpanName::kAdd: return "policy.add";
    case SpanName::kRemove: return "policy.remove";
    case SpanName::kRemoveMany: return "policy.remove_many";
    case SpanName::kReclaim: return "policy.reclaim";
    case SpanName::kPrime: return "policy.prime";
    case SpanName::kExport: return "policy.export_point_snapshot";
    case SpanName::kDirtyQueues: return "policy.dirty_queues";
    case SpanName::kAdvertised: return "policy.advertised";
    case SpanName::kContains: return "policy.contains";
    case SpanName::kRenewLease: return "policy.renew_lease";
    case SpanName::kMakePermanent: return "policy.make_permanent";
    case SpanName::kComputedBound: return "policy.computed_bound";
    case SpanName::kConnectionCount: return "policy.connection_count";
    case SpanName::kAudit: return "policy.audit";
    case SpanName::kCount: break;
  }
  return "?";
}

const char* to_string(Layer layer) noexcept {
  switch (layer) {
    case Layer::kSwitchCac: return "switch_cac";
    case Layer::kPointSnapshot: return "point_snapshot";
    case Layer::kConcurrentCac: return "concurrent_cac";
    case Layer::kMergeTree: return "merge_tree";
    case Layer::kTraffic: return "traffic";
    case Layer::kPolicyState: return "policy_state";
    case Layer::kConnectionManager: return "connection_manager";
    case Layer::kAdmissionEngine: return "admission_engine";
    case Layer::kSignaling: return "signaling";
    case Layer::kCount: break;
  }
  return "?";
}

Layer layer_of(SpanName name) noexcept {
  switch (name) {
    case SpanName::kCmSetup:
    case SpanName::kCmCheck:
    case SpanName::kCmTeardown:
      return Layer::kConnectionManager;
    case SpanName::kAeCheck:
    case SpanName::kAeSetup:
    case SpanName::kAeTeardown:
      return Layer::kAdmissionEngine;
    case SpanName::kSigInitiate:
    case SpanName::kSigModify:
    case SpanName::kSigRelease:
    case SpanName::kSigStep:
      return Layer::kSignaling;
    case SpanName::kPrepare:
      return Layer::kTraffic;
    case SpanName::kCheck:
      return Layer::kSwitchCac;
    case SpanName::kSnapshotCheck:
      return Layer::kPointSnapshot;
    case SpanName::kAdd:
    case SpanName::kRemove:
    case SpanName::kRemoveMany:
    case SpanName::kReclaim:
      return Layer::kMergeTree;
    case SpanName::kPrime:
    case SpanName::kExport:
    case SpanName::kDirtyQueues:
      return Layer::kConcurrentCac;
    case SpanName::kAdvertised:
    case SpanName::kContains:
    case SpanName::kRenewLease:
    case SpanName::kMakePermanent:
    case SpanName::kComputedBound:
    case SpanName::kConnectionCount:
    case SpanName::kAudit:
    case SpanName::kCount:
      break;
  }
  return Layer::kPolicyState;
}

namespace {

/// Snapshot wrapper: the concurrency layer hands it back as `previous`
/// on the next export, so TracingPoint unwraps it before forwarding —
/// the bit-stream policy static-casts that pointer to its own type.
class TracingSnapshot final : public PointSnapshot {
 public:
  TracingSnapshot(std::shared_ptr<const PointSnapshot> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] HopVerdict check(std::size_t in_port, Priority priority,
                                 const std::any& arrival) const override {
    const ScopedSpan span(&tracer_, SpanName::kSnapshotCheck);
    return inner_->check(in_port, priority, arrival);
  }

  [[nodiscard]] const PointSnapshot* inner() const noexcept {
    return inner_.get();
  }

 private:
  std::shared_ptr<const PointSnapshot> inner_;
  Tracer& tracer_;
};

class TracingPoint final : public PolicyCac {
 public:
  TracingPoint(std::unique_ptr<PolicyCac> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] double advertised(std::size_t out_port,
                                  Priority priority) const override {
    const ScopedSpan span(&tracer_, SpanName::kAdvertised);
    return inner_->advertised(out_port, priority);
  }
  [[nodiscard]] std::any prepare(const rtcac::TrafficDescriptor& traffic,
                                 double cdv) const override {
    const ScopedSpan span(&tracer_, SpanName::kPrepare);
    return inner_->prepare(traffic, cdv);
  }
  [[nodiscard]] HopVerdict check(std::size_t in_port, std::size_t out_port,
                                 Priority priority,
                                 const std::any& arrival) const override {
    const ScopedSpan span(&tracer_, SpanName::kCheck);
    return inner_->check(in_port, out_port, priority, arrival);
  }
  void add(ConnectionId id, std::size_t in_port, std::size_t out_port,
           Priority priority, const std::any& arrival,
           double lease_expiry) override {
    const ScopedSpan span(&tracer_, SpanName::kAdd);
    inner_->add(id, in_port, out_port, priority, arrival, lease_expiry);
  }
  bool remove(ConnectionId id) override {
    const ScopedSpan span(&tracer_, SpanName::kRemove);
    return inner_->remove(id);
  }
  std::size_t remove_many(std::span<const ConnectionId> ids) override {
    const ScopedSpan span(&tracer_, SpanName::kRemoveMany);
    return inner_->remove_many(ids);
  }
  [[nodiscard]] bool contains(ConnectionId id) const override {
    const ScopedSpan span(&tracer_, SpanName::kContains);
    return inner_->contains(id);
  }
  bool renew_lease(ConnectionId id, double lease_expiry) override {
    const ScopedSpan span(&tracer_, SpanName::kRenewLease);
    return inner_->renew_lease(id, lease_expiry);
  }
  bool make_permanent(ConnectionId id) override {
    const ScopedSpan span(&tracer_, SpanName::kMakePermanent);
    return inner_->make_permanent(id);
  }
  std::vector<ConnectionId> reclaim(double now) override {
    const ScopedSpan span(&tracer_, SpanName::kReclaim);
    return inner_->reclaim(now);
  }
  [[nodiscard]] std::optional<double> computed_bound(
      std::size_t out_port, Priority priority) const override {
    const ScopedSpan span(&tracer_, SpanName::kComputedBound);
    return inner_->computed_bound(out_port, priority);
  }
  [[nodiscard]] std::size_t connection_count() const override {
    const ScopedSpan span(&tracer_, SpanName::kConnectionCount);
    return inner_->connection_count();
  }
  void prime() const override {
    const ScopedSpan span(&tracer_, SpanName::kPrime);
    inner_->prime();
  }
  [[nodiscard]] std::shared_ptr<const PointSnapshot> export_point_snapshot(
      std::size_t out_port, const PointSnapshot* previous,
      std::span<const std::size_t> stale_priorities) const override {
    const ScopedSpan span(&tracer_, SpanName::kExport);
    // `previous` is always one of this point's own exports, i.e. a
    // TracingSnapshot; the inner policy must see its own type.
    const PointSnapshot* inner_previous =
        previous != nullptr
            ? static_cast<const TracingSnapshot*>(previous)->inner()
            : nullptr;
    std::shared_ptr<const PointSnapshot> snapshot =
        inner_->export_point_snapshot(out_port, inner_previous,
                                      stale_priorities);
    if (snapshot == nullptr) return nullptr;
    return std::make_shared<TracingSnapshot>(std::move(snapshot), tracer_);
  }
  [[nodiscard]] std::optional<std::vector<std::size_t>> dirty_queues()
      const override {
    const ScopedSpan span(&tracer_, SpanName::kDirtyQueues);
    return inner_->dirty_queues();
  }
  [[nodiscard]] bool state_consistent() const override {
    const ScopedSpan span(&tracer_, SpanName::kAudit);
    return inner_->state_consistent();
  }
  [[nodiscard]] bool bandwidth_conserved() const override {
    const ScopedSpan span(&tracer_, SpanName::kAudit);
    return inner_->bandwidth_conserved();
  }
  [[nodiscard]] bool cache_coherent() const override {
    const ScopedSpan span(&tracer_, SpanName::kAudit);
    return inner_->cache_coherent();
  }
  [[nodiscard]] const rtcac::SwitchCac* bitstream() const noexcept override {
    return inner_->bitstream();
  }

 private:
  std::unique_ptr<PolicyCac> inner_;
  Tracer& tracer_;
};

}  // namespace

std::unique_ptr<PolicyCac> TracingPolicy::make_point(
    const rtcac::PointConfig& config) const {
  return std::make_unique<TracingPoint>(inner_.make_point(config), tracer_);
}

Breakdown analyse(
    const Tracer& tracer,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& window_ns) {
  constexpr auto kNames = static_cast<std::size_t>(SpanName::kCount);
  Breakdown out;
  out.layer_self_ns.assign(static_cast<std::size_t>(Layer::kCount), 0.0);
  out.self_ns.assign(kNames, 0.0);
  out.calls.assign(kNames, 0);
  out.spans = tracer.size();
  for (const auto& [begin, end] : window_ns) {
    out.section_ns += static_cast<double>(end - begin);
  }

  // Children always follow their parent, so one pass accumulates each
  // span's child coverage before the span itself is visited from the
  // back.
  std::vector<double> child_ns(tracer.size(), 0.0);
  std::size_t window = 0;
  for (std::uint32_t i = tracer.size(); i-- > 0;) {
    const Span& span = tracer.at(i);
    const auto duration = static_cast<double>(span.duration_ns);
    const auto k = static_cast<std::size_t>(span.name);
    const double self = duration - child_ns[i];
    if (self < 0) {
      throw std::runtime_error("trace: span children exceed their parent");
    }
    out.self_ns[k] += self;
    out.layer_self_ns[static_cast<std::size_t>(layer_of(span.name))] += self;
    ++out.calls[k];
    if (span.parent == kNoParent) {
      out.root_ns += duration;
      out.unwrapped_calls += is_engine_call(span.name) ? 0 : 1;
      continue;
    }
    if (span.parent >= i) throw std::runtime_error("trace: parent after child");
    child_ns[span.parent] += duration;
  }
  // Every root span must sit inside a measured window.
  for (std::uint32_t i = 0; i < tracer.size(); ++i) {
    const Span& span = tracer.at(i);
    if (span.parent != kNoParent) continue;
    const std::int64_t end = span.start_ns + span.duration_ns;
    while (window < window_ns.size() && window_ns[window].second < end) {
      ++window;
    }
    if (window == window_ns.size() || span.start_ns < window_ns[window].first) {
      throw std::runtime_error("trace: root span outside the timed section");
    }
  }
  return out;
}

void write_spans(const std::string& path, const Tracer& tracer) {
  // A full section holds tens of millions of spans; the first million
  // (whole engine calls) keep the file small enough to read.
  constexpr std::uint32_t kDumpedSpans = 1'000'000;
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    throw std::runtime_error("trace: cannot write " + path);
  }
  const std::int64_t origin = tracer.size() > 0 ? tracer.at(0).start_ns : 0;
  std::fprintf(file, "span\tparent\tverdict\tname\tstart_ns\tduration_ns\n");
  for (std::uint32_t i = 0; i < tracer.size(); ++i) {
    const Span& span = tracer.at(i);
    if (i >= kDumpedSpans && span.parent == kNoParent) break;
    const long long parent =
        span.parent == kNoParent ? -1 : static_cast<long long>(span.parent);
    std::fprintf(file, "%u\t%lld\t%u\t%s\t%lld\t%u\n", i, parent,
                 span.verdict, to_string(span.name),
                 static_cast<long long>(span.start_ns - origin),
                 span.duration_ns);
  }
  if (std::fclose(file) != 0) {
    throw std::runtime_error("trace: failed writing " + path);
  }
}

}  // namespace cacbench
