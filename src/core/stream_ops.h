// rtcac/core/stream_ops.h
//
// The bit-stream manipulation algebra of Section 3 of the paper:
//
//   * multiplex    (Algorithm 3.2) — pointwise rate sum of two streams;
//   * multiplex_all — k-way merge form of the same sum, used by the CAC
//     hot path to aggregate whole cells in one sweep;
//   * demultiplex  (Algorithm 3.3) — pointwise rate difference, used to
//     remove a component from an aggregate it was previously added to;
//   * filter       (Algorithm 3.4) — the smoothing a transmission link of
//     unit rate applies to a stream whose rate exceeds the link bandwidth;
//   * delay        (Algorithm 3.1) — worst-case clumping distortion a
//     stream suffers after crossing queueing points with accumulated cell
//     delay variation CDV.
//
// `delay` is implemented as prefix-collapse + `filter`: delaying by CDV in
// the worst case turns the first CDV of traffic into an instantaneous
// backlog released at link rate, i.e. the delayed cumulative function is
// A'(t) = min(t, A(t + CDV)).  That is exactly `filter` applied to the
// stream shifted left by CDV with an initial backlog of A(CDV).  The paper
// presents the two algorithms separately; sharing the drain computation
// removes a whole class of off-by-one-segment bugs.
//
// All operations preserve the BitStream invariant (step-wise,
// non-increasing) and are pure: they return new streams.
//
// Each algorithm has one definition, a span kernel in `detail` that reads
// segment spans and writes raw segments into a caller's buffer.  The
// per-point check (core/point_snapshot.h) and the SwitchCac cache fills
// run the kernels on per-thread scratch (core/stream_scratch.h) and never
// build a BitStream for an intermediate; the BitStream forms below are
// thin wrappers over the same kernels.  Results are canonicalized by the
// one canonicalize_segments pass wherever they would have been built as
// a BitStream, so both forms agree bit for bit.

#pragma once

#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/bitstream.h"
#include "core/stream_scratch.h"
#include "util/contract.h"

namespace rtcac {

namespace detail {

template <typename Num>
using SegmentSpan = std::span<const BasicSegment<Num>>;

/// The zero stream {(0, 0)} and the saturated link {(1, 0)} as spans
/// over static storage, for kernels whose result is one of them.
template <typename Num>
[[nodiscard]] SegmentSpan<Num> zero_segments() noexcept {
  static const BasicSegment<Num> kZero[1] = {{Num(0), Num(0)}};
  return kZero;
}
template <typename Num>
[[nodiscard]] SegmentSpan<Num> unit_rate_segments() noexcept {
  static const BasicSegment<Num> kUnit[1] = {{Num(1), Num(0)}};
  return kUnit;
}

/// The two-way union sweep at the heart of `multiplex` (Algorithm 3.2):
/// appends to `out` one segment per breakpoint in the union of `a` and
/// `b`, whose rate is the sum of the rates in force.  Output is raw —
/// adjacent equal-rate segments are NOT coalesced; callers canonicalize
/// (the BitStream constructor, or BitStream::canonicalize_segments for
/// buffer-reusing callers like the merge tree).  Shared so every 2-way
/// aggregate in the system — fold, k-way verify, merge-tree node — sums
/// rates through the one definition and stays bitwise comparable.
template <typename Num>
void multiplex_union(std::span<const BasicSegment<Num>> a,
                     std::span<const BasicSegment<Num>> b,
                     std::vector<BasicSegment<Num>>& out) {
  using Seg = BasicSegment<Num>;
  std::size_t i = 0;
  std::size_t j = 0;
  // Sweep the union of breakpoints; at each, the aggregate rate is the sum
  // of the rates currently in force.
  while (i < a.size() || j < b.size()) {
    Num t{};
    if (j >= b.size() || (i < a.size() && a[i].start < b[j].start)) {
      t = a[i].start;
      ++i;
    } else if (i >= a.size() || b[j].start < a[i].start) {
      t = b[j].start;
      ++j;
    } else {
      t = a[i].start;
      ++i;
      ++j;
    }
    const Num rate = (i > 0 ? a[i - 1].rate : Num(0)) +
                     (j > 0 ? b[j - 1].rate : Num(0));
    out.push_back(Seg{rate, t});
  }
}

/// The k-way union sweep of multiplex_all: appends to `out` one segment
/// per breakpoint in the union of `streams` (at least two, each a valid
/// stream starting at 0), whose rate is the left-nested sum, in input
/// order, of the rates in force — the association of the left fold of
/// two-way multiplex, so the two agree bitwise whenever the fold's
/// canonicalization coalesces nothing (always, for exact scalars).  Each
/// term is non-increasing in t and fp rounding is monotone, so the sum is
/// too.  Output is raw, as multiplex_union's.
///
/// That sum costs O(k) per breakpoint and cannot be updated incrementally
/// without changing its rounding, so the next breakpoint is found by a
/// linear scan over the cursors in the same pass: O(k) per breakpoint
/// either way, and no slower than a heap at the input counts the check
/// and rebuild_cell merge (docs/PERFORMANCE.md §3).
template <typename Num>
void multiplex_union_all(std::span<const SegmentSpan<Num>> streams,
                         std::vector<BasicSegment<Num>>& out) {
  using Seg = BasicSegment<Num>;
  // cursor[s] is one past the segment of stream s in force.  Every stream
  // starts at 0, so from the first breakpoint on each cursor is >= 1.
  std::vector<std::size_t>& cursor =
      StreamScratch<Num>::local().merge_cursors;
  cursor.assign(streams.size(), 0);
  Num t{0};
  for (;;) {
    // Advance the cursors sitting on t, add the rates in force, and find
    // the next breakpoint.
    Num rate_sum{0};
    const Num* next = nullptr;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const SegmentSpan<Num> segs = streams[s];
      std::size_t& k = cursor[s];
      if (k < segs.size() && segs[k].start == t) ++k;
      rate_sum += segs[k - 1].rate;
      if (k < segs.size() && (next == nullptr || segs[k].start < *next)) {
        next = &segs[k].start;
      }
    }
    out.push_back(Seg{rate_sum, t});
    if (next == nullptr) return;
    t = *next;
  }
}

/// K-way multiplex over spans: the canonical segments of the aggregate.
/// Zero streams contribute nothing; with none left the result is the zero
/// stream, and a lone non-zero input is returned unchanged (not copied).
/// Otherwise the union is written to `out`, canonicalized there, and
/// `out` is returned.  The result views `out` or the inputs, so it lives
/// as long as they do.
template <typename Num>
[[nodiscard]] SegmentSpan<Num> multiplex_all_segments(
    std::span<const SegmentSpan<Num>> streams,
    std::vector<BasicSegment<Num>>& out) {
  std::vector<SegmentSpan<Num>>& active =
      StreamScratch<Num>::local().merge_inputs;
  active.clear();
  std::size_t total = 0;
  for (const SegmentSpan<Num>& s : streams) {
    if (is_zero_segments(s)) continue;
    active.push_back(s);
    total += s.size();
  }
  if (active.empty()) return zero_segments<Num>();
  if (active.size() == 1) return active.front();
  out.clear();
  out.reserve(total);
  multiplex_union_all<Num>(active, out);
  BasicBitStream<Num>::canonicalize_segments(out);
  RTCAC_INVARIANT_AUDIT(BasicBitStream<Num>::segments_valid(out),
                        "multiplex_all: output violates the stream invariant");
  return out;
}

/// What smooth_segments made of its input.
enum class FilterShape {
  kUnchanged,  ///< already link-feasible: the output is the input
  kSaturated,  ///< the queue never drains: the output is {(1, 0)}
  kSmoothed,   ///< the raw smoothed segments were written to `out`
};

/// The link filter of Algorithm 3.4 (see `filter` below) over a segment
/// span.  Writes raw (uncanonicalized) segments to `out` only for
/// kSmoothed.
template <typename Num>
[[nodiscard]] FilterShape smooth_segments(SegmentSpan<Num> segs,
                                          const Num& initial_backlog,
                                          std::vector<BasicSegment<Num>>& out) {
  using Seg = BasicSegment<Num>;
  RTCAC_REQUIRE(!(initial_backlog < Num(0)),
                "filter: negative initial backlog");
  // Fast path: nothing to smooth.
  if (initial_backlog == Num(0) && segs.front().rate <= Num(1)) {
    return FilterShape::kUnchanged;
  }

  // Walk segments tracking queue occupancy Q(t); Q' = rate - 1.
  // Q is concave (rate non-increasing), so the first time Q hits zero the
  // busy period is over for good.
  Num queue = initial_backlog;
  std::optional<Num> drain_time;
  std::size_t drain_seg = 0;
  for (std::size_t k = 0; k < segs.size(); ++k) {
    const Num rate = segs[k].rate;
    if (rate < Num(1)) {
      const Num slope = Num(1) - rate;  // drain speed
      if (k + 1 < segs.size()) {
        const Num len = segs[k + 1].start - segs[k].start;
        if (queue <= slope * len) {
          drain_time = segs[k].start + queue / slope;
          drain_seg = k;
          break;
        }
        queue -= slope * len;
      } else {
        drain_time = segs[k].start + queue / slope;
        drain_seg = k;
        break;
      }
    } else if (rate > Num(1)) {
      if (k + 1 == segs.size()) break;  // grows forever
      queue += (rate - Num(1)) * (segs[k + 1].start - segs[k].start);
    } else {
      // rate == 1: queue constant through this segment.
      if (k + 1 == segs.size()) break;
    }
  }

  if (!drain_time.has_value()) {
    // Link saturated forever.
    return FilterShape::kSaturated;
  }
  if (*drain_time == Num(0)) {
    // Degenerate: zero backlog and first rate exactly 1 was handled by the
    // fast path only for rate <= 1; an initial_backlog of 0 with rate > 1
    // cannot drain at t = 0.  Reaching here means initial_backlog == 0 and
    // the stream is already link-feasible.
    return FilterShape::kUnchanged;
  }

  out.clear();
  out.reserve(segs.size() - drain_seg + 1);
  out.push_back(Seg{Num(1), Num(0)});
  // After the drain instant the output follows the input.  The input rate
  // at drain_time is segs[drain_seg].rate (< 1, or the drain would not
  // have completed inside this segment) — unless the queue emptied exactly
  // at the segment's end, in which case the next segment takes over
  // immediately and emitting the drained one would duplicate its start.
  std::size_t resume = drain_seg;
  if (resume + 1 < segs.size() && !(segs[resume + 1].start > *drain_time)) {
    ++resume;
  }
  out.push_back(Seg{segs[resume].rate, *drain_time});
  for (std::size_t k = resume + 1; k < segs.size(); ++k) {
    out.push_back(segs[k]);
  }
  return FilterShape::kSmoothed;
}

/// `filter` over spans: the canonical segments of the filtered stream —
/// the input itself, the saturated link, or `out` holding the
/// canonicalized smoothed segments.
template <typename Num>
[[nodiscard]] SegmentSpan<Num> filter_segments(
    SegmentSpan<Num> segs, const Num& initial_backlog,
    std::vector<BasicSegment<Num>>& out) {
  switch (smooth_segments(segs, initial_backlog, out)) {
    case FilterShape::kUnchanged:
      return segs;
    case FilterShape::kSaturated:
      return unit_rate_segments<Num>();
    case FilterShape::kSmoothed:
      break;
  }
  BasicBitStream<Num>::canonicalize_segments(out);
  RTCAC_INVARIANT_AUDIT(
      BasicBitStream<Num>::segments_valid(out) &&
          NumTraits<Num>::nearly_leq(out.front().rate, Num(1)),
      "filter: output must be a link-feasible (rate <= 1) stream");
  return out;
}

}  // namespace detail

/// Multiplexes two streams (Algorithm 3.2): the worst-case aggregate of two
/// connections sharing a queueing point has, at every instant, the sum of
/// the component rates.
template <typename Num>
BasicBitStream<Num> multiplex(const BasicBitStream<Num>& s1,
                              const BasicBitStream<Num>& s2) {
  std::vector<BasicSegment<Num>> out;
  out.reserve(s1.size() + s2.size());
  detail::multiplex_union(s1.segments(), s2.segments(), out);
  BasicBitStream<Num> result(std::move(out));
  RTCAC_INVARIANT_AUDIT(result.invariants_hold(),
                        "multiplex: output violates the stream invariant");
  return result;
}

/// K-way multiplex: the aggregate of an arbitrary set of streams in one
/// merge sweep (detail::multiplex_union_all).  Equivalent to left-folding
/// `multiplex` over the set, and bitwise equal to the fold whenever no
/// tolerance coalescing fires in the fold's intermediates (always, for
/// exact scalars) — remove/rebuild must restore aggregates bit for bit.
/// Unlike the fold it never materializes the O(k) intermediate partial
/// aggregates.  Null and zero entries contribute nothing; an empty set
/// yields the zero stream.
template <typename Num>
BasicBitStream<Num> multiplex_all(
    std::span<const BasicBitStream<Num>* const> streams) {
  typename detail::StreamScratch<Num>::Frame frame;
  std::vector<detail::SegmentSpan<Num>>& parts = frame.spans();
  for (const BasicBitStream<Num>* s : streams) {
    if (s != nullptr) parts.push_back(s->segments());
  }
  return BasicBitStream<Num>::from_canonical(
      detail::multiplex_all_segments<Num>(parts, frame.segments()));
}

/// Convenience overload over a materialized pointer container.
template <typename Num>
BasicBitStream<Num> multiplex_all(
    const std::vector<const BasicBitStream<Num>*>& streams) {
  return multiplex_all(
      std::span<const BasicBitStream<Num>* const>(streams));
}

/// Convenience overload over streams by value (tests, small call sites).
template <typename Num>
BasicBitStream<Num> multiplex_all(
    std::span<const BasicBitStream<Num>> streams) {
  std::vector<const BasicBitStream<Num>*> ptrs;
  ptrs.reserve(streams.size());
  for (const auto& s : streams) ptrs.push_back(&s);
  return multiplex_all(std::span<const BasicBitStream<Num>* const>(ptrs));
}

/// Thrown by demultiplex when the subtrahend is not contained in the
/// aggregate (the difference would be negative beyond numeric noise).
/// Indicates a bookkeeping bug in the caller, not bad input traffic.
class StreamContainmentError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Demultiplexes (Algorithm 3.3): removes component s2 from aggregate s1,
/// requiring that s2 was previously multiplexed into s1 (rates never go
/// negative).  Throws StreamContainmentError otherwise.
template <typename Num>
BasicBitStream<Num> demultiplex(const BasicBitStream<Num>& s1,
                                const BasicBitStream<Num>& s2) {
  using Seg = BasicSegment<Num>;
  std::vector<Seg> out;
  out.reserve(s1.size() + s2.size());
  const auto a = s1.segments();
  const auto b = s2.segments();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    Num t{};
    if (j >= b.size() || (i < a.size() && a[i].start < b[j].start)) {
      t = a[i].start;
      ++i;
    } else if (i >= a.size() || b[j].start < a[i].start) {
      t = b[j].start;
      ++j;
    } else {
      t = a[i].start;
      ++i;
      ++j;
    }
    Num rate = (i > 0 ? a[i - 1].rate : Num(0)) -
               (j > 0 ? b[j - 1].rate : Num(0));
    rate = NumTraits<Num>::snap_nonnegative(rate);
    if (rate < Num(0)) {
      throw StreamContainmentError(
          "demultiplex: component stream is not contained in the aggregate");
    }
    out.push_back(Seg{rate, t});
  }
  // The difference of two non-increasing step functions need not be
  // monotone in general, but it is whenever s2 was a multiplexed component
  // of s1 (the remainder is itself a sum of non-increasing streams).  The
  // BitStream constructor re-validates, turning any misuse into a loud
  // error instead of a silently wrong admission decision.
  try {
    BasicBitStream<Num> result(std::move(out));
    RTCAC_INVARIANT_AUDIT(
        result.invariants_hold(),
        "demultiplex: output violates the stream invariant");
    return result;
  } catch (const std::invalid_argument&) {
    throw StreamContainmentError(
        "demultiplex: result is not a valid worst-case stream; the "
        "component was not part of this aggregate");
  }
}

/// Filters a stream through a unit-bandwidth transmission link
/// (Algorithm 3.4), optionally with `initial_backlog` bits already queued
/// at time 0.  While backlog remains, the output runs at link rate 1; once
/// the queue drains the input passes through unchanged.  Because input
/// rates are non-increasing, the queue has a single busy period.
///
/// If the queue never drains (tail input rate >= 1 with backlog, or > 1),
/// the output is a permanent full-rate stream {(1, 0)}.  An already
/// link-feasible input is returned as itself, sharing its block.
template <typename Num>
BasicBitStream<Num> filter(const BasicBitStream<Num>& s,
                           const Num& initial_backlog = Num(0)) {
  typename detail::StreamScratch<Num>::Frame frame;
  const detail::SegmentSpan<Num> out =
      detail::filter_segments(s.segments(), initial_backlog, frame.segments());
  if (out.data() == s.segments().data()) return s;
  return BasicBitStream<Num>::from_canonical(out);
}

/// Shifts a stream left by `shift` time units: result rate r'(t) =
/// r(t + shift).  Bits produced before `shift` are dropped (the caller
/// accounts for them, e.g. as the initial backlog of `delay`).
template <typename Num>
BasicBitStream<Num> shift_left(const BasicBitStream<Num>& s,
                               const Num& shift) {
  using Seg = BasicSegment<Num>;
  RTCAC_REQUIRE(!(shift < Num(0)), "shift_left: negative shift");
  if (shift == Num(0)) return s;
  const auto segs = s.segments();
  std::vector<Seg> out;
  out.reserve(segs.size());
  for (const auto& seg : segs) {
    const Num start =
        seg.start <= shift ? Num(0) : Num(seg.start - shift);
    if (!out.empty() && out.back().start == start) {
      out.back().rate = seg.rate;  // later segment at same (clamped) start wins
    } else {
      out.push_back(Seg{seg.rate, start});
    }
  }
  BasicBitStream<Num> result(std::move(out));
  RTCAC_INVARIANT_AUDIT(result.invariants_hold(),
                        "shift_left: output violates the stream invariant");
  return result;
}

/// Worst-case delay distortion (Algorithm 3.1): the stream after crossing
/// queueing points with accumulated cell delay variation `cdv`.
///
/// In the worst case every bit generated in [0, cdv] is held until time
/// cdv and then released back-to-back at link rate, while later bits pass
/// undelayed.  Rebasing time at the first released bit gives
/// A'(t) = min(t, A(t + cdv)): the original cumulative curve shifted left
/// by cdv, clipped by the link rate.
template <typename Num>
BasicBitStream<Num> delay(const BasicBitStream<Num>& s, const Num& cdv) {
  RTCAC_REQUIRE(!(cdv < Num(0)), "delay: negative CDV");
  if (cdv == Num(0) || s.is_zero()) return s;
  const Num accumulated = s.bits_before(cdv);
  BasicBitStream<Num> result = filter(shift_left(s, cdv), accumulated);
  RTCAC_INVARIANT_AUDIT(result.invariants_hold(),
                        "delay: output violates the stream invariant");
  return result;
}

}  // namespace rtcac
