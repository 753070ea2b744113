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

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <limits>
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

  /// The zero stream (no traffic).
  BasicBitStream()
      : segments_{Segment{Num(0), Num(0)}}, cum_bits_{Num(0)} {}

  /// Constant-rate stream from time 0.  Throws on negative rate.
  static BasicBitStream constant(const Num& rate) {
    return BasicBitStream(std::vector<Segment>{Segment{rate, Num(0)}});
  }

  /// Builds a stream from segments, validating and canonicalizing.
  /// Throws std::invalid_argument on any invariant violation.
  explicit BasicBitStream(std::vector<Segment> segments)
      : segments_(std::move(segments)) {
    canonicalize_segments(segments_);
    rebuild_prefix_areas();
  }

  BasicBitStream(std::initializer_list<Segment> segments)
      : segments_(segments) {
    canonicalize_segments(segments_);
    rebuild_prefix_areas();
  }

  /// Builds a stream from segments that are already canonical (validated,
  /// non-increasing, no coalescable adjacents) — the merge-tree hot path
  /// (core/merge_tree.h) produces exactly such output, so re-running the
  /// full canonicalize pass per aggregate materialization would be pure
  /// overhead.  Audit builds re-verify the claim; a non-canonical input
  /// is a caller bug.
  static BasicBitStream from_canonical(std::vector<Segment> segments) {
    BasicBitStream s(CanonicalTag{}, std::move(segments));
    RTCAC_INVARIANT_AUDIT(
        s.is_canonical_form(),
        "BitStream::from_canonical: input was not canonical");
    return s;
  }

  /// from_canonical over a span — typically a span kernel's result in
  /// per-thread scratch (core/stream_scratch.h) — copied out at exact
  /// size.
  static BasicBitStream from_canonical(std::span<const Segment> segments) {
    return from_canonical(
        std::vector<Segment>(segments.begin(), segments.end()));
  }

  /// The in-place validation/normalization pass the constructor applies:
  /// snaps rounding noise, enforces the step-wise non-increasing
  /// invariant and coalesces (nearly) equal adjacent rates.  Exposed so
  /// stream composition that assembles segment buffers outside a
  /// BitStream (core/merge_tree.h) shares the one canonical definition
  /// instead of re-implementing it.
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
    return segments_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return segments_.size(); }

  /// Rate of the stream at time t (t < 0 is treated as 0).  Segment
  /// starts are strictly increasing (class invariant), so the active
  /// segment is found by binary search — O(log m), not a linear scan.
  [[nodiscard]] Num rate_at(const Num& t) const {
    const auto it = first_segment_after(t);
    return it == segments_.begin() ? segments_.front().rate
                                   : std::prev(it)->rate;
  }

  /// Rate of the final (infinite) segment.
  [[nodiscard]] Num final_rate() const noexcept {
    return segments_.back().rate;
  }

  /// Peak (initial) rate.
  [[nodiscard]] Num peak_rate() const noexcept {
    return segments_.front().rate;
  }

  /// True iff the stream carries no traffic at all.
  [[nodiscard]] bool is_zero() const noexcept {
    return segments_.size() == 1 && segments_.front().rate == Num(0);
  }

  /// Re-verifies the class invariant on the current representation:
  /// non-empty, first segment at time 0, strictly increasing starts,
  /// non-negative and non-increasing rates.  The constructor establishes
  /// this; RTCAC_INVARIANT_AUDIT call sites (stream_ops.h, switch_cac.cpp)
  /// re-check it in audit builds to catch corruption after construction.
  [[nodiscard]] bool invariants_hold() const noexcept {
    return segments_valid(segments_);
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
    if (!invariants_hold()) return false;
    for (std::size_t k = 1; k < segments_.size(); ++k) {
      if (Traits::nearly_equal(segments_[k].rate, segments_[k - 1].rate)) {
        return false;
      }
    }
    return true;
  }

  /// Cumulative bits A(t) = integral of the rate over [0, t].
  /// t < 0 yields 0.  Served from the prefix areas precomputed at
  /// construction (`cum_bits_`, accumulated left-to-right in exactly the
  /// order the former linear scan summed), so the lookup is O(log m) and
  /// bitwise-identical to the scan it replaced.
  [[nodiscard]] Num bits_before(const Num& t) const {
    if (t <= Num(0)) return Num(0);
    // Last segment with start < t: t > 0 and the first segment starts at
    // 0, so the cut is never before begin().
    const auto it = std::prev(first_segment_after(t));
    const auto k = static_cast<std::size_t>(it - segments_.begin());
    return cum_bits_[k] + it->rate * (t - it->start);
  }

  /// Earliest time t with A(t) >= bits; nullopt if the stream never
  /// accumulates that many bits (possible only when the tail rate is 0).
  [[nodiscard]] std::optional<Num> time_of_bits(const Num& bits) const {
    if (bits <= Num(0)) return Num(0);
    Num area{0};
    for (std::size_t k = 0; k < segments_.size(); ++k) {
      const Num seg_start = segments_[k].start;
      const Num rate = segments_[k].rate;
      const bool last = (k + 1 == segments_.size());
      if (!last) {
        const Num seg_len = segments_[k + 1].start - seg_start;
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
    return bits_before(segments_.back().start);
  }

  /// Pointwise comparison: true iff this stream's cumulative function
  /// dominates (is >= at every t) the other's.  Used by tests to verify
  /// that distortion operators only ever make a stream "worse".
  [[nodiscard]] bool dominates(const BasicBitStream& other) const {
    // A_this and A_other are piecewise linear and concave; comparing at
    // every breakpoint of both suffices, plus the tail slopes.
    for (const Segment& s : segments_) {
      if (!Traits::nearly_leq(other.bits_before(s.start),
                              bits_before(s.start))) {
        return false;
      }
    }
    for (const Segment& s : other.segments_) {
      if (!Traits::nearly_leq(other.bits_before(s.start),
                              bits_before(s.start))) {
        return false;
      }
    }
    const Num last =
        std::max(segments_.back().start, other.segments_.back().start);
    if (!Traits::nearly_leq(other.bits_before(last), bits_before(last))) {
      return false;
    }
    return Traits::nearly_leq(other.final_rate(), final_rate());
  }

  /// Structural equality up to the numeric tolerance of Num.
  [[nodiscard]] bool nearly_equal(const BasicBitStream& other) const {
    if (segments_.size() != other.segments_.size()) return false;
    for (std::size_t k = 0; k < segments_.size(); ++k) {
      if (!Traits::nearly_equal(segments_[k].rate, other.segments_[k].rate) ||
          !Traits::nearly_equal(segments_[k].start,
                                other.segments_[k].start)) {
        return false;
      }
    }
    return true;
  }

  friend bool operator==(const BasicBitStream& a,
                         const BasicBitStream& b) = default;

  [[nodiscard]] std::string to_string() const {
    std::ostringstream os;
    os << "{";
    for (std::size_t k = 0; k < segments_.size(); ++k) {
      if (k > 0) os << ", ";
      os << "(" << as_printable(segments_[k].rate) << " @ "
         << as_printable(segments_[k].start) << ")";
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

  /// First segment whose start is strictly after t (end() if none);
  /// std::upper_bound over the strictly-increasing segment starts.
  [[nodiscard]] typename std::vector<Segment>::const_iterator
  first_segment_after(const Num& t) const {
    return std::upper_bound(
        segments_.begin(), segments_.end(), t,
        [](const Num& value, const Segment& s) { return value < s.start; });
  }

  struct CanonicalTag {};
  BasicBitStream(CanonicalTag, std::vector<Segment> segments)
      : segments_(std::move(segments)) {
    rebuild_prefix_areas();
  }

  /// Prefix areas for the O(log m) bits_before: cum_bits_[k] is A(t(k)),
  /// accumulated left-to-right exactly as the former linear scan did so
  /// lookups reproduce its partial sums bitwise.
  void rebuild_prefix_areas() {
    cum_bits_.clear();
    cum_bits_.reserve(segments_.size());
    Num area{0};
    for (std::size_t k = 0; k < segments_.size(); ++k) {
      cum_bits_.push_back(area);
      if (k + 1 < segments_.size()) {
        area += segments_[k].rate * (segments_[k + 1].start -
                                     segments_[k].start);
      }
    }
  }

  std::vector<Segment> segments_;
  /// cum_bits_[k] = bits accumulated before segment k starts (A(t(k))).
  std::vector<Num> cum_bits_;

  // Lets the invariant-audit tests corrupt a constructed stream in place
  // (the public API cannot, by design).
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

}  // namespace detail

/// Production instantiation: floating point, tolerant comparisons.
using Segment = BasicSegment<double>;
using BitStream = BasicBitStream<double>;

/// Exact instantiation for boundary-exact admission and test oracles.
using ExactSegment = BasicSegment<Rational>;
using ExactBitStream = BasicBitStream<Rational>;

}  // namespace rtcac
