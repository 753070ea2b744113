// rtcac/core/bitstream.h
//
// The bit-stream traffic model of Zheng et al. (MERL TR-96-21 / ICDCS'97),
// Section 2.
//
// A bit stream S = {(r(k), t(k)), k = 0..m} is a step-wise, non-increasing
// rate function of time: the stream has rate r(k) during [t(k), t(k+1)),
// with t(0) = 0 and t(m+1) = infinity.  Time is measured in cell times
// (the time to transmit one 53-byte cell at full link rate) and rate is
// normalized to the link bandwidth, so a single connection has rates in
// [0, 1] while an aggregate of n simultaneously-arriving streams can reach
// rate n.
//
// The monotonicity (worst-case traffic is front-loaded) is a class
// invariant: every operation in the paper's algebra — delay distortion,
// multiplexing, demultiplexing, link filtering (stream_ops.h) and the
// worst-case queueing analysis (delay_bound.h) — both requires and
// preserves it.
//
// The class is templated on the scalar type.  `BitStream` (double) is the
// production instantiation; `ExactBitStream` (Rational) provides exact
// admission decisions and is used by the tests to cross-validate the
// floating-point code.
//
// Storage (docs/PERFORMANCE.md, "Shared stream storage"): a stream is an
// immutable handle to one reference-counted heap block holding its
// segments and their prefix areas, so copying, assigning or destroying a
// stream only adjusts a count — the merge trees, the derived-stream
// caches, the published snapshots and the prepared arrivals all hold the
// same blocks.  Nothing writes through a handle after construction; a
// "changed" stream is a new block.  The zero stream owns no block: its
// handle points at static storage and has no counter to touch.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/contract.h"
#include "util/rational.h"

namespace rtcac {

struct BitStreamTestAccess;  // white-box corruption hook for audit tests

/// Scalar-type policy for the stream algebra.  The primary template serves
/// exact types (Rational): comparisons are exact and no coalescing slack is
/// applied.
template <typename Num>
struct NumTraits {
  static constexpr bool kExact = true;

  static bool nearly_equal(const Num& a, const Num& b) { return a == b; }
  static bool nearly_leq(const Num& a, const Num& b) { return a <= b; }
  /// Snaps values that are negative only through rounding noise to zero.
  /// For exact types a negative value is a genuine contract violation, so
  /// it is returned unchanged and the caller's validation rejects it.
  static Num snap_nonnegative(const Num& a) { return a; }
};

template <>
struct NumTraits<double> {
  static constexpr bool kExact = false;
  /// Absolute-ish tolerance; rates in this library are O(1)..O(256) and
  /// times O(1e4), so a scaled epsilon keeps comparisons meaningful at
  /// both magnitudes.
  static constexpr double kEps = 1e-9;

  static double scale(double a, double b) {
    return std::max({1.0, std::abs(a), std::abs(b)});
  }
  static bool nearly_equal(double a, double b) {
    return std::abs(a - b) <= kEps * scale(a, b);
  }
  static bool nearly_leq(double a, double b) {
    return a <= b + kEps * scale(a, b);
  }
  static double snap_nonnegative(double a) {
    return (a < 0 && a >= -kEps) ? 0.0 : a;
  }
};

/// One step of a bit stream: the stream runs at `rate` from `start` until
/// the next segment's start (or forever, for the last segment).
template <typename Num>
struct BasicSegment {
  Num rate{};
  Num start{};

  friend bool operator==(const BasicSegment&, const BasicSegment&) = default;
};

/// A worst-case traffic envelope: step-wise non-increasing rate function.
///
/// Invariants (checked at construction):
///   * at least one segment, the first starting at time 0;
///   * segment start times strictly increasing;
///   * rates non-negative and non-increasing;
///   * adjacent segments with (nearly) equal rates are coalesced, so the
///     representation is canonical.
template <typename Num>
class BasicBitStream {
 public:
  using Segment = BasicSegment<Num>;
  using Traits = NumTraits<Num>;

  /// The zero stream (no traffic).  Allocates nothing.
  BasicBitStream() noexcept = default;

  BasicBitStream(const BasicBitStream&) = default;
  BasicBitStream& operator=(const BasicBitStream&) = default;
  /// A moved-from stream is the zero stream.
  BasicBitStream(BasicBitStream&& other) noexcept
      : block_(std::exchange(other.block_, zero_block())),
        size_(std::exchange(other.size_, std::size_t{1})) {}
  BasicBitStream& operator=(BasicBitStream&& other) noexcept {
    block_ = std::exchange(other.block_, zero_block());
    size_ = std::exchange(other.size_, std::size_t{1});
    return *this;
  }

  /// Constant-rate stream from time 0.  Throws on negative rate.
  static BasicBitStream constant(const Num& rate) {
    return BasicBitStream(std::vector<Segment>{Segment{rate, Num(0)}});
  }

  /// Builds a stream from segments, validating and canonicalizing.
  /// Throws std::invalid_argument on any invariant violation.
  explicit BasicBitStream(std::vector<Segment> segments) {
    canonicalize_segments(segments);
    store(segments);
  }

  BasicBitStream(std::initializer_list<Segment> segments)
      : BasicBitStream(std::vector<Segment>(segments)) {}

  /// Builds a stream from segments that are already canonical (validated,
  /// non-increasing, no coalescable adjacents) — the span kernels
  /// (core/stream_ops.h) and the merge tree (core/merge_tree.h) emit
  /// exactly such output, typically in per-thread scratch
  /// (core/stream_scratch.h), so re-running the full canonicalize pass per
  /// aggregate materialization would be pure overhead.  Copies the
  /// segments into one new block.  Audit builds re-verify the claim; a
  /// non-canonical input is a caller bug.
  static BasicBitStream from_canonical(std::span<const Segment> segments) {
    BasicBitStream s;
    s.store(segments);
    RTCAC_INVARIANT_AUDIT(
        s.is_canonical_form(),
        "BitStream::from_canonical: input was not canonical");
    return s;
  }

  /// The in-place validation/normalization pass the constructor applies:
  /// snaps rounding noise, enforces the step-wise non-increasing
  /// invariant and coalesces (nearly) equal adjacent rates.  The kernels
  /// of core/stream_ops.h apply the same rules per segment as they emit
  /// (detail::CanonicalWriter below) and never run this pass; the tests
  /// use it as their reference.
  static void canonicalize_segments(std::vector<Segment>& segments) {
    RTCAC_REQUIRE(!segments.empty(), "BitStream: needs at least one segment");
    RTCAC_REQUIRE(segments.front().start == Num(0),
                  "BitStream: first segment must start at 0");
    for (auto& seg : segments) {
      seg.rate = Traits::snap_nonnegative(seg.rate);
      RTCAC_REQUIRE(!(seg.rate < Num(0)), "BitStream: negative rate");
    }
    for (std::size_t k = 1; k < segments.size(); ++k) {
      RTCAC_REQUIRE(segments[k - 1].start < segments[k].start,
                    "BitStream: segment starts must be strictly increasing");
      if (segments[k].rate > segments[k - 1].rate) {
        RTCAC_REQUIRE(
            Traits::nearly_leq(segments[k].rate, segments[k - 1].rate),
            "BitStream: rates must be non-increasing");
        segments[k].rate = segments[k - 1].rate;  // snap rounding noise
      }
    }
    // Coalesce adjacent segments with (nearly) equal rates so equivalent
    // streams have identical representations and repeated algebra does not
    // grow the segment list without bound.
    std::size_t kept = 1;
    for (std::size_t k = 1; k < segments.size(); ++k) {
      if (Traits::nearly_equal(segments[k].rate, segments[kept - 1].rate)) {
        continue;
      }
      segments[kept++] = segments[k];
    }
    segments.resize(kept);
  }

  [[nodiscard]] std::span<const Segment> segments() const noexcept {
    return {block_.get(), size_};
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Rate of the stream at time t (t < 0 is treated as 0).  Segment
  /// starts are strictly increasing (class invariant), so the active
  /// segment is found by binary search — O(log m), not a linear scan.
  [[nodiscard]] Num rate_at(const Num& t) const {
    const std::size_t k = first_segment_after(t);
    return block_[k == 0 ? 0 : k - 1].rate;
  }

  /// Rate of the final (infinite) segment.
  [[nodiscard]] Num final_rate() const noexcept {
    return block_[size_ - 1].rate;
  }

  /// Peak (initial) rate.
  [[nodiscard]] Num peak_rate() const noexcept { return block_[0].rate; }

  /// True iff the stream carries no traffic at all.
  [[nodiscard]] bool is_zero() const noexcept {
    return size_ == 1 && block_[0].rate == Num(0);
  }

  /// Re-verifies the class invariant on the current representation:
  /// non-empty, first segment at time 0, strictly increasing starts,
  /// non-negative and non-increasing rates.  The constructor establishes
  /// this; RTCAC_INVARIANT_AUDIT call sites (stream_ops.h, switch_cac.cpp)
  /// re-check it in audit builds to catch corruption after construction.
  [[nodiscard]] bool invariants_hold() const noexcept {
    return segments_valid(segments());
  }

  /// The same check over a raw segment list, for the span kernels'
  /// audits (core/stream_ops.h).
  [[nodiscard]] static bool segments_valid(
      std::span<const Segment> segments) noexcept {
    if (segments.empty()) return false;
    if (!(segments.front().start == Num(0))) return false;
    for (std::size_t k = 0; k < segments.size(); ++k) {
      if (segments[k].rate < Num(0)) return false;
      if (k > 0) {
        if (!(segments[k - 1].start < segments[k].start)) return false;
        if (segments[k].rate > segments[k - 1].rate) return false;
      }
    }
    return true;
  }

  /// invariants_hold() plus the canonical-representation guarantee: no
  /// adjacent segments with (nearly) equal rates survive canonicalization,
  /// so a stream claiming to be canonical (from_canonical) must have none.
  [[nodiscard]] bool is_canonical_form() const noexcept {
    return segments_canonical(segments());
  }

  /// The same check over a raw segment list, for the audits of the
  /// kernels that emit canonical segments (core/stream_ops.h).
  [[nodiscard]] static bool segments_canonical(
      std::span<const Segment> segments) noexcept {
    if (!segments_valid(segments)) return false;
    for (std::size_t k = 1; k < segments.size(); ++k) {
      if (Traits::nearly_equal(segments[k].rate, segments[k - 1].rate)) {
        return false;
      }
    }
    return true;
  }

  /// Cumulative bits A(t) = integral of the rate over [0, t].
  /// t < 0 yields 0.  Served from the prefix areas precomputed at
  /// construction (accumulated left-to-right in exactly the order the
  /// former linear scan summed), so the lookup is O(log m) and
  /// bitwise-identical to the scan it replaced.
  [[nodiscard]] Num bits_before(const Num& t) const {
    if (t <= Num(0)) return Num(0);
    // Last segment with start < t: t > 0 and the first segment starts at
    // 0, so the cut is never before the first segment.
    const std::size_t k = first_segment_after(t) - 1;
    return prefix_area(k) + block_[k].rate * (t - block_[k].start);
  }

  /// Earliest time t with A(t) >= bits; nullopt if the stream never
  /// accumulates that many bits (possible only when the tail rate is 0).
  [[nodiscard]] std::optional<Num> time_of_bits(const Num& bits) const {
    if (bits <= Num(0)) return Num(0);
    Num area{0};
    for (std::size_t k = 0; k < size_; ++k) {
      const Num seg_start = block_[k].start;
      const Num rate = block_[k].rate;
      const bool last = (k + 1 == size_);
      if (!last) {
        const Num seg_len = block_[k + 1].start - seg_start;
        const Num gained = rate * seg_len;
        if (area + gained >= bits) {
          return seg_start + (bits - area) / rate;  // rate > 0 here
        }
        area += gained;
      } else {
        if (rate == Num(0)) {
          if constexpr (Traits::kExact) {
            if (area >= bits) return seg_start;
          } else {
            if (Traits::nearly_leq(bits, area)) return seg_start;
          }
          return std::nullopt;
        }
        return seg_start + (bits - area) / rate;
      }
    }
    return std::nullopt;  // unreachable; keeps -Wreturn-type quiet
  }

  /// Total bits ever produced; nullopt when infinite (tail rate > 0).
  [[nodiscard]] std::optional<Num> total_bits() const {
    if (final_rate() > Num(0)) return std::nullopt;
    return bits_before(block_[size_ - 1].start);
  }

  /// Pointwise comparison: true iff this stream's cumulative function
  /// dominates (is >= at every t) the other's.  Used by tests to verify
  /// that distortion operators only ever make a stream "worse".
  [[nodiscard]] bool dominates(const BasicBitStream& other) const {
    // A_this and A_other are piecewise linear and concave; comparing at
    // every breakpoint of both suffices, plus the tail slopes.
    for (const Segment& s : segments()) {
      if (!Traits::nearly_leq(other.bits_before(s.start),
                              bits_before(s.start))) {
        return false;
      }
    }
    for (const Segment& s : other.segments()) {
      if (!Traits::nearly_leq(other.bits_before(s.start),
                              bits_before(s.start))) {
        return false;
      }
    }
    const Num last = std::max(block_[size_ - 1].start,
                              other.block_[other.size_ - 1].start);
    if (!Traits::nearly_leq(other.bits_before(last), bits_before(last))) {
      return false;
    }
    return Traits::nearly_leq(other.final_rate(), final_rate());
  }

  /// Structural equality up to the numeric tolerance of Num.
  [[nodiscard]] bool nearly_equal(const BasicBitStream& other) const {
    if (size_ != other.size_) return false;
    for (std::size_t k = 0; k < size_; ++k) {
      if (!Traits::nearly_equal(block_[k].rate, other.block_[k].rate) ||
          !Traits::nearly_equal(block_[k].start, other.block_[k].start)) {
        return false;
      }
    }
    return true;
  }

  /// Compares contents, not blocks: equal streams built apart are equal.
  friend bool operator==(const BasicBitStream& a, const BasicBitStream& b) {
    return std::ranges::equal(a.segments(), b.segments());
  }

  [[nodiscard]] std::string to_string() const {
    std::ostringstream os;
    os << "{";
    for (std::size_t k = 0; k < size_; ++k) {
      if (k > 0) os << ", ";
      os << "(" << as_printable(block_[k].rate) << " @ "
         << as_printable(block_[k].start) << ")";
    }
    os << "}";
    return os.str();
  }

  friend std::ostream& operator<<(std::ostream& os, const BasicBitStream& s) {
    return os << s.to_string();
  }

 private:
  template <typename T>
  static const T& as_printable(const T& v) {
    return v;
  }

  /// Index of the first segment whose start is strictly after t (size()
  /// if none); std::upper_bound over the strictly-increasing starts.
  [[nodiscard]] std::size_t first_segment_after(const Num& t) const {
    const std::span<const Segment> segs = segments();
    return static_cast<std::size_t>(
        std::upper_bound(segs.begin(), segs.end(), t,
                         [](const Num& value, const Segment& s) {
                           return value < s.start;
                         }) -
        segs.begin());
  }

  /// A(t(k)), the bits accumulated before segment k starts.
  [[nodiscard]] const Num& prefix_area(std::size_t k) const noexcept {
    return block_[size_ + k].rate;
  }

  /// The zero stream's block (layout at block_ below): its segment
  /// {(0, 0)} and its one prefix area 0.
  static constexpr Segment kZeroBlock[2] = {Segment{Num(0), Num(0)},
                                            Segment{Num(0), Num(0)}};

  /// A handle on kZeroBlock that owns nothing (the aliasing constructor
  /// over an empty owner), so copying it touches no counter.
  [[nodiscard]] static std::shared_ptr<const Segment[]> zero_block() noexcept {
    return std::shared_ptr<const Segment[]>(
        std::shared_ptr<const Segment[]>(), kZeroBlock);
  }

  /// Points this handle at a new block holding `segments` (valid and
  /// canonical — the callers' contract) and their prefix areas, or at
  /// kZeroBlock for the zero stream.  The block is written here, before
  /// any other handle can see it, and never again.
  void store(std::span<const Segment> segments) {
    const std::size_t m = segments.size();
    if (m == 1 && segments[0].rate == Num(0) && segments[0].start == Num(0)) {
      block_ = zero_block();
      size_ = 1;
      return;
    }
    std::shared_ptr<Segment[]> block = std::make_shared<Segment[]>(2 * m);
    std::copy(segments.begin(), segments.end(), block.get());
    Num area{0};
    for (std::size_t k = 0; k < m; ++k) {
      block[m + k].rate = area;
      if (k + 1 < m) {
        area += segments[k].rate * (segments[k + 1].start - segments[k].start);
      }
    }
    block_ = std::move(block);
    size_ = m;
  }

  /// The shared block of a stream of m = size_ segments: elements
  /// [0, m) are the segments, and the rate of element m + k is the prefix
  /// area A(t(k)), accumulated left-to-right exactly as the former linear
  /// scan did so lookups reproduce its partial sums bitwise.  One
  /// allocation holds both, aligned for Segment and so for Num.
  std::shared_ptr<const Segment[]> block_ = zero_block();
  std::size_t size_ = 1;

  // Lets the invariant-audit tests point a stream at a corrupt block of
  // its own (store() skips validation); other copies keep theirs.
  friend struct BitStreamTestAccess;
};

namespace detail {

/// BasicBitStream::is_zero over a raw segment list (the span kernels of
/// core/stream_ops.h and core/delay_bound.h).
template <typename Num>
[[nodiscard]] bool is_zero_segments(
    std::span<const BasicSegment<Num>> segments) noexcept {
  return segments.size() == 1 && segments.front().rate == Num(0);
}

/// Appends the segments of a stream, produced in time order from t = 0,
/// in canonical form as they come: each gets canonicalize_segments' three
/// rules on arrival — rounding noise below zero snaps to 0, a rate above
/// its predecessor's (within tolerance) snaps down to it, and a rate
/// (nearly) equal to the last kept segment's coalesces into it.  So the
/// kernels of core/stream_ops.h emit canonical output in the one pass that
/// computes it, bitwise what canonicalize_segments makes of the same raw
/// list (tests/core/test_multiplex_all.cpp).  Only the rules run here:
/// the kernels' starts are strictly increasing by construction, and the
/// constructor keeps validating arbitrary input.
template <typename Num>
class CanonicalWriter {
 public:
  using Segment = BasicSegment<Num>;
  using Traits = NumTraits<Num>;

  /// Appends to `out`, which must be empty.
  explicit CanonicalWriter(std::vector<Segment>& out) : out_(out) {}

  void push(Num rate, const Num& start) {
    const bool first = out_.empty();
    if (rate < Num(0) || (!first && rate > previous_)) rate = snapped(rate);
    previous_ = rate;
    if (!first && Traits::nearly_equal(rate, out_.back().rate)) return;
    out_.push_back(Segment{rate, start});
  }

 private:
  /// The first two rules, for a rate they change: kept out of push() so
  /// the common case stays small enough to inline.
  Num snapped(Num rate) const {
    rate = Traits::snap_nonnegative(rate);
    RTCAC_REQUIRE(!(rate < Num(0)), "BitStream: negative rate");
    if (!out_.empty() && rate > previous_) {
      RTCAC_REQUIRE(Traits::nearly_leq(rate, previous_),
                    "BitStream: rates must be non-increasing");
      rate = previous_;
    }
    return rate;
  }

  std::vector<Segment>& out_;
  Num previous_{};  ///< the last pushed rate after its snaps, kept or not
};

}  // namespace detail

/// Production instantiation: floating point, tolerant comparisons.
using Segment = BasicSegment<double>;
using BitStream = BasicBitStream<double>;

/// Exact instantiation for boundary-exact admission and test oracles.
using ExactSegment = BasicSegment<Rational>;
using ExactBitStream = BasicBitStream<Rational>;

}  // namespace rtcac
