// In-memory span tracer and the admission-policy decorator that feeds it.
//
// A span is one call across a layer boundary: its name, start, end, the
// span that caused it (its parent) and the verdict it belongs to.  The
// benchmark opens one span around every engine call it makes; the
// TracingPolicy decorator opens one around every call an engine makes
// into the admission-policy layer (CacPolicy / PolicyCac / PointSnapshot).
// The decorator forwards every call unchanged, so a traced run makes the
// same decisions as an untraced one — the benchmark checks that by digest.
//
// Spans stay in memory during the timed section; analysis and the dump
// to disk happen after it ends.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/path_eval.h"

namespace cacbench {

/// Every span the benchmark records.  The first group is opened by the
/// benchmark around engine calls; the rest by the policy decorator.
enum class SpanName : std::uint8_t {
  // engine calls (root spans)
  kCmSetup,
  kCmCheck,
  kCmTeardown,
  kAeCheck,
  kAeSetup,
  kAeTeardown,
  kSigInitiate,
  kSigModify,
  kSigRelease,
  kSigStep,
  // admission-policy calls
  kPrepare,
  kCheck,
  kSnapshotCheck,
  kAdd,
  kRemove,
  kRemoveMany,
  kReclaim,
  kPrime,
  kExport,
  kDirtyQueues,
  kAdvertised,
  kContains,
  kRenewLease,
  kMakePermanent,
  kComputedBound,
  kConnectionCount,
  kAudit,
  kCount
};

[[nodiscard]] const char* to_string(SpanName name) noexcept;

/// Whether `name` is an engine call the benchmark makes, rather than a
/// call into the admission-policy layer.
[[nodiscard]] constexpr bool is_engine_call(SpanName name) noexcept {
  return name <= SpanName::kSigStep;
}

/// The module layer a span's self time is charged to.
enum class Layer : std::uint8_t {
  kSwitchCac,          ///< core/switch_cac + core/delay_bound: live check
  kPointSnapshot,      ///< core/point_snapshot: lock-free check
  kConcurrentCac,      ///< core/concurrent_cac: prime + export
  kMergeTree,          ///< core/merge_tree + core/stream_arena: add/remove
  kTraffic,            ///< core/traffic + core/stream_ops: prepare
  kPolicyState,        ///< cheap per-point accessors and lease updates
  kConnectionManager,  ///< net/connection_manager + core/path_eval walk
  kAdmissionEngine,    ///< net/admission_engine + concurrent_cac stamps
  kSignaling,          ///< net/signaling + sim/event_queue + fault_injector
  kCount
};

[[nodiscard]] const char* to_string(Layer layer) noexcept;
[[nodiscard]] Layer layer_of(SpanName name) noexcept;

struct Span {
  std::int64_t start_ns = 0;
  std::uint32_t duration_ns = 0;
  std::uint32_t parent = 0;   ///< index of the parent span, or kNoParent
  std::uint32_t verdict = 0;  ///< index of the verdict the span serves
  SpanName name = SpanName::kCount;
};

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Records spans while armed.  Single-threaded, like the benchmark.
class Tracer {
 public:
  static constexpr std::uint32_t kOff = 0xFFFFFFFFu;

  void arm(bool on) noexcept { armed_ = on; }
  void set_verdict(std::uint32_t verdict) noexcept { verdict_ = verdict; }

  std::uint32_t open(SpanName name) {
    if (!armed_) return kOff;
    if ((size_ & kChunkMask) == 0) {
      chunks_.push_back(std::make_unique<Span[]>(kChunkSpans));
    }
    const std::uint32_t index = size_++;
    Span& span = at(index);
    span.parent = stack_.empty() ? kNoParent : stack_.back();
    span.verdict = verdict_;
    span.name = name;
    stack_.push_back(index);
    span.start_ns = now_ns();
    return index;
  }

  void close(std::uint32_t index) noexcept {
    if (index == kOff) return;
    Span& span = at(index);
    span.duration_ns = static_cast<std::uint32_t>(now_ns() - span.start_ns);
    stack_.pop_back();
  }

  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  [[nodiscard]] const Span& at(std::uint32_t index) const noexcept {
    return chunks_[index >> kChunkBits][index & kChunkMask];
  }

 private:
  // Chunked storage: appending never moves recorded spans, so the timed
  // section pays no reallocation copies.
  static constexpr std::uint32_t kChunkBits = 16;
  static constexpr std::uint32_t kChunkSpans = 1u << kChunkBits;
  static constexpr std::uint32_t kChunkMask = kChunkSpans - 1;

  [[nodiscard]] Span& at(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkBits][index & kChunkMask];
  }

  bool armed_ = false;
  std::uint32_t verdict_ = 0;
  std::uint32_t size_ = 0;
  std::vector<std::uint32_t> stack_;
  std::vector<std::unique_ptr<Span[]>> chunks_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(name) : Tracer::kOff) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_;
};

/// CacPolicy decorator: every point it makes wraps the inner policy's
/// point and records a span around each call before forwarding it.
class TracingPolicy final : public rtcac::CacPolicy {
 public:
  TracingPolicy(const rtcac::CacPolicy& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] std::unique_ptr<rtcac::PolicyCac> make_point(
      const rtcac::PointConfig& config) const override;

 private:
  const rtcac::CacPolicy& inner_;
  Tracer& tracer_;
};

/// Self-time totals of one traced section.
struct Breakdown {
  double section_ns = 0;   ///< wall time of the traced timed section
  double root_ns = 0;      ///< time covered by root (engine-call) spans
  std::vector<double> layer_self_ns;  ///< per Layer
  std::vector<double> self_ns;        ///< per SpanName
  std::vector<std::size_t> calls;     ///< per SpanName
  std::size_t spans = 0;
  std::size_t unwrapped_calls = 0;  ///< root spans that are policy calls
};

/// Self time per span (its duration minus the time its child spans
/// cover), summed per span name and per layer.  `window_ns` lists the
/// measured intervals of the section; every span must lie inside one.
/// Throws std::runtime_error when a span breaks nesting or falls outside
/// the section.
[[nodiscard]] Breakdown analyse(
    const Tracer& tracer,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& window_ns);

/// Writes the first million recorded spans, cut at an engine-call
/// boundary, as a tab-separated dump with one header line (see
/// README.md, "Reading a trace").
void write_spans(const std::string& path, const Tracer& tracer);

}  // namespace cacbench
