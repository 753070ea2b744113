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
// segment spans and writes segments into a caller's buffer.  The
// per-point check (core/point_snapshot.h) and the SwitchCac cache fills
// run the kernels on per-thread scratch (core/stream_scratch.h) and never
// build a BitStream for an intermediate; the BitStream forms below are
// thin wrappers over the same kernels.  The k-way merge and the filter
// emit canonical segments in the pass that computes them
// (detail::CanonicalWriter, core/bitstream.h): bitwise what the
// BitStream constructor's canonicalize_segments pass makes of the raw
// segments, without that second pass.

#pragma once

#include <algorithm>
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

/// The two-way union sweep of `multiplex` (Algorithm 3.2): appends to
/// `out` one segment per breakpoint in the union of `a` and `b`, whose
/// rate is the sum of the rates in force.  Output is raw — adjacent
/// equal-rate segments are NOT coalesced; `multiplex` hands it to the
/// BitStream constructor.  This fold step is the reference the k-way
/// kernel below is tested against (tests/core/test_multiplex_all.cpp) and
/// the one check_from_scratch folds with.
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

/// The k-way merge of Algorithm 3.2: appends to `out` (empty) the
/// canonical segments of the aggregate of `streams` (valid streams; zero
/// streams add nothing and are skipped, and none at all is the zero
/// stream).  Every aggregate on the admission path is made here:
/// multiplex_all_segments (the check, the cache fills, rebuild_cell) and
/// the merge tree's node merge (core/merge_tree.h).
///
/// The rate at each breakpoint of the union is the left-nested sum, in
/// input order, of the rates in force — the association of the left fold
/// of two-way `multiplex`, so the two agree bitwise whenever the fold's
/// canonicalization coalesces nothing (always, for exact scalars).  Each
/// term is non-increasing in t and fp rounding is monotone, so the sum is
/// too.  That sum costs O(k) per breakpoint and cannot be updated
/// incrementally without changing its rounding, so the next breakpoint is
/// found by a linear scan over the cursors in the same pass
/// (docs/PERFORMANCE.md §3).  A cursor advances by a select, not a branch
/// per input: the segment after the one in force takes over when it
/// starts at or before t (no next segment starts before t, so that means
/// at t; on the last segment the "next" is the segment itself).  It then
/// offers the start of its next segment to the search for the next
/// breakpoint, or, on its last segment, the union's last breakpoint.
/// Each sum goes straight through CanonicalWriter, so no second pass
/// canonicalizes the output.
template <typename Num>
void multiplex_union_canonical(std::span<const SegmentSpan<Num>> streams,
                               std::vector<BasicSegment<Num>>& out) {
  using Seg = BasicSegment<Num>;
  std::vector<MergeCursor<Num>>& cursor_store =
      StreamScratch<Num>::local().merge_cursors;
  cursor_store.clear();
  Num end{0};  // the union's last breakpoint
  for (const SegmentSpan<Num>& segs : streams) {
    if (is_zero_segments(segs)) continue;
    cursor_store.push_back(MergeCursor<Num>{segs.data(), &segs.back()});
    if (end < segs.back().start) end = segs.back().start;
  }
  const std::span<MergeCursor<Num>> cursors(cursor_store);
  CanonicalWriter<Num> emit(out);
  Num t{0};
  for (;;) {
    Num rate_sum{0};
    Num next = end;
    for (MergeCursor<Num>& c : cursors) {
      const Seg* step = c.at + (c.at != c.last);
      c.at = t < step->start ? c.at : step;
      rate_sum += c.at->rate;
      next = std::min(next, c.at != c.last ? c.at[1].start : end);
    }
    emit.push(rate_sum, t);
    if (t == end) break;
    t = next;
  }
  RTCAC_INVARIANT_AUDIT(BasicBitStream<Num>::segments_canonical(out),
                        "multiplex: output is not a canonical stream");
}

/// K-way multiplex over spans: the canonical segments of the aggregate.
/// Zero streams contribute nothing; with none left the result is the zero
/// stream, and a lone non-zero input is returned unchanged (not copied).
/// Otherwise the aggregate is written to `out`, which is returned.  The
/// result views `out` or the inputs, so it lives as long as they do.
template <typename Num>
[[nodiscard]] SegmentSpan<Num> multiplex_all_segments(
    std::span<const SegmentSpan<Num>> streams,
    std::vector<BasicSegment<Num>>& out) {
  const SegmentSpan<Num>* lone = nullptr;
  std::size_t live = 0;
  std::size_t total = 0;
  for (const SegmentSpan<Num>& s : streams) {
    if (is_zero_segments(s)) continue;
    lone = &s;
    ++live;
    total += s.size();
  }
  if (live == 0) return zero_segments<Num>();
  if (live == 1) return *lone;
  out.clear();
  out.reserve(total);
  multiplex_union_canonical<Num>(streams, out);
  return out;
}

/// What smooth_segments made of its input.
enum class FilterShape {
  kUnchanged,  ///< already link-feasible: the output is the input
  kSaturated,  ///< the queue never drains: the output is {(1, 0)}
  kSmoothed,   ///< the raw smoothed segments were written to `out`
};

/// The link filter of Algorithm 3.4 (see `filter` below) over a canonical
/// segment span.  Writes to `out` only for kSmoothed, and then the
/// canonical segments of the smoothed stream: the link rate 1, the
/// resumed rate through CanonicalWriter (it may coalesce into the 1), and
/// the input's later segments copied as they are.
template <typename Num>
[[nodiscard]] FilterShape smooth_segments(SegmentSpan<Num> segs,
                                          const Num& initial_backlog,
                                          std::vector<BasicSegment<Num>>& out) {
  RTCAC_REQUIRE(!(initial_backlog < Num(0)),
                "filter: negative initial backlog");
  RTCAC_INVARIANT_AUDIT(BasicBitStream<Num>::segments_canonical(segs),
                        "filter: input must be a canonical stream");
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
  CanonicalWriter<Num> emit(out);
  emit.push(Num(1), Num(0));
  // After the drain instant the output follows the input.  The input rate
  // at drain_time is segs[drain_seg].rate (< 1, or the drain would not
  // have completed inside this segment) — unless the queue emptied exactly
  // at the segment's end, in which case the next segment takes over
  // immediately and emitting the drained one would duplicate its start.
  std::size_t resume = drain_seg;
  if (resume + 1 < segs.size() && !(segs[resume + 1].start > *drain_time)) {
    ++resume;
  }
  emit.push(segs[resume].rate, *drain_time);
  // The rest is canonical already and cannot coalesce or snap: its rates
  // fall exactly and by more than the tolerance from segment to segment,
  // the resumed rate is below 1, and a rate below a resumed rate within
  // the tolerance of 1 lies more than the tolerance below 1.
  const SegmentSpan<Num> tail = segs.subspan(resume + 1);
  out.insert(out.end(), tail.begin(), tail.end());
  return FilterShape::kSmoothed;
}

/// `filter` over spans: the canonical segments of the filtered stream —
/// the input itself, the saturated link, or `out` holding the smoothed
/// segments.
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
  RTCAC_INVARIANT_AUDIT(
      BasicBitStream<Num>::segments_canonical(out) &&
          NumTraits<Num>::nearly_leq(out.front().rate, Num(1)),
      "filter: output must be a canonical link-feasible (rate <= 1) stream");
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
/// merge sweep (detail::multiplex_union_canonical).  Equivalent to
/// left-folding `multiplex` over the set, and bitwise equal to the fold
/// whenever no tolerance coalescing fires in the fold's intermediates
/// (always, for exact scalars) — remove/rebuild must restore aggregates
/// bit for bit.
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
