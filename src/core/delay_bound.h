// rtcac/core/delay_bound.h
//
// Worst-case queueing analysis at a static-priority FIFO queueing point
// (Section 4.2, Algorithm 4.1 of the paper).
//
// Inputs:
//   S  — the aggregated worst-case arrival stream of priority p;
//   S1 — the *filtered* aggregated arrival stream of all priorities higher
//        than p (filtered = the rate at which higher-priority traffic can
//        actually occupy the outgoing link, hence <= 1 everywhere).
//
// The service available to priority p at time u is 1 - r1(u).  A bit of S
// arriving at time t departs, in the worst case, at
//     g(t) = inf { u : G(u) > A(t) },   G(u) = ∫₀ᵘ (1 - r1),
// because all A(t) earlier-or-equal priority-p bits must be transmitted
// first (FIFO within the priority) and higher-priority traffic preempts
// the link.  The queueing delay bound is
//     D = sup_t max(0, g(t) - t),
// the horizontal deviation between the arrival curve A and the service
// curve G.  A is concave and G convex (r non-increasing, r1 non-increasing
// so 1 - r1 non-decreasing), so D(t) is piecewise linear with breakpoints
// only at breakpoints of S and at preimages of breakpoints of S1 —
// evaluating those finitely many candidates is exact; no maximization over
// a continuum is needed (the paper's "easier delay bound calculation"
// claim).
//
// The strict inequality in g(t) (upper inverse of G) matters: when
// higher-priority traffic saturates the link over an interval, G is flat
// there and a priority-p bit arriving while the backlog is exactly served
// can still be stuck behind the saturation until the interval *ends*.  The
// lower inverse would under-report the bound by the width of the flat
// segment.  When G saturates permanently at exactly A(t) (zero tail
// capacity), the last bit departs when G first reaches A(t), so the lower
// inverse applies in that boundary case.
//
// The buffer requirement is the vertical deviation sup_t (A(t) - G(t)),
// provided by max_backlog().
//
// Both return nullopt when the bound is infinite, i.e. tail arrivals
// outpace tail service — an admission controller must reject such a
// configuration.  That test compares exactly in both scalar types: with
// the double engine's tolerance, a sustained load of 1 + 2^-k counted as
// stable for k >= 30 and was admitted with a finite bound, although its
// queue grows without limit (tests/core/test_exact_switch_cac.cpp).

#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/bitstream.h"
#include "core/stream_scratch.h"
#include "util/contract.h"

namespace rtcac {

namespace detail {

/// Piecewise-linear, non-decreasing, convex service curve
/// G(u) = ∫₀ᵘ (1 - r1) for a filtered higher-priority stream r1 (<= 1),
/// one ServicePoint per breakpoint of r1.  The curve views storage its
/// caller owns: per-thread scratch on the admission path (delay_bound),
/// a local vector elsewhere.
template <typename Num>
class ServiceCurve {
 public:
  /// Builds G for `higher_priority_filtered` into `storage`, replacing its
  /// contents; the curve reads `storage` until the caller next changes it.
  ServiceCurve(std::span<const BasicSegment<Num>> higher_priority_filtered,
               std::vector<ServicePoint<Num>>& storage) {
    storage.clear();
    for (const auto& seg : higher_priority_filtered) {
      Num capacity = NumTraits<Num>::snap_nonnegative(Num(1) - seg.rate);
      RTCAC_REQUIRE(!(capacity < Num(0)),
                    "ServiceCurve: higher-priority stream must be filtered "
                    "(rate <= 1)");
      storage.push_back(ServicePoint<Num>{seg.start, capacity, Num(0)});
    }
    for (std::size_t k = 1; k < storage.size(); ++k) {
      storage[k].value =
          storage[k - 1].value +
          storage[k - 1].capacity * (storage[k].start - storage[k - 1].start);
    }
    points_ = storage;
  }

  /// Service available in [0, u].
  [[nodiscard]] Num operator()(const Num& u) const {
    if (u <= Num(0)) return Num(0);
    std::size_t k = 0;
    while (k + 1 < points_.size() && points_[k + 1].start <= u) ++k;
    return points_[k].value + points_[k].capacity * (u - points_[k].start);
  }

  /// Tail service rate (capacity after the last breakpoint).
  [[nodiscard]] Num tail_capacity() const { return points_.back().capacity; }

  /// The breakpoints, in time order; points()[k].value == G(start).
  [[nodiscard]] std::span<const ServicePoint<Num>> points() const {
    return points_;
  }

  /// Worst-case departure time for cumulative demand `a`:
  /// inf{u : G(u) > a}, falling back to the lower inverse when G saturates
  /// at exactly a.  nullopt if G never reaches a (demand never served).
  [[nodiscard]] std::optional<Num> departure(const Num& a) const {
    if (a < Num(0)) return Num(0);
    // Find the first segment k whose *end value* exceeds a; departure lies
    // inside it.  Flat (zero-capacity) segments are skipped, which is
    // exactly the upper-inverse semantics.
    for (std::size_t k = 0; k + 1 < points_.size(); ++k) {
      if (points_[k + 1].value > a) {
        // capacity > 0, otherwise the value would not have grown.
        return points_[k].start + (a - points_[k].value) / points_[k].capacity;
      }
    }
    const ServicePoint<Num>& last = points_.back();
    if (last.capacity > Num(0)) {
      const Num excess = a - last.value;
      return last.start +
             (excess > Num(0) ? excess / last.capacity : Num(0));
    }
    // Service saturates at last.value.  Served only if demand does not
    // exceed it; the final bit departs when G first reached a.  Exact for
    // both scalars, so any error is toward unbounded: a tolerance would
    // let a saturated link (G = 0) serve a burst of up to 1e-9 bits in
    // double and return a finite bound.
    if (!(a <= last.value)) return std::nullopt;
    return lower_inverse(a);
  }

 private:
  /// Earliest u with G(u) >= a; requires G to reach a.
  [[nodiscard]] Num lower_inverse(const Num& a) const {
    if (a <= Num(0)) return Num(0);
    for (std::size_t k = 0; k < points_.size(); ++k) {
      const ServicePoint<Num>& p = points_[k];
      const bool last = (k + 1 == points_.size());
      const Num end_value = last ? p.value : points_[k + 1].value;
      if (!last && end_value >= a && p.capacity > Num(0)) {
        return p.start + (a - p.value) / p.capacity;
      }
      if (last) {
        if (p.capacity > Num(0)) {
          const Num excess = a - p.value;
          return p.start + (excess > Num(0) ? excess / p.capacity : Num(0));
        }
        return p.start;
      }
    }
    return points_.back().start;  // unreachable
  }

  std::span<const ServicePoint<Num>> points_;
};

/// Worst-case queueing delay bound for priority-p arrivals `segs` given the
/// filtered higher-priority arrivals `s1_filtered` (Algorithm 4.1), over
/// segment spans.  The one definition behind `delay_bound`; it allocates
/// nothing once the calling thread's scratch is warm.  Returns nullopt
/// when unbounded.
///
/// Evaluated as a single merge sweep: the candidate maximizers (breakpoints
/// of S plus the preimages under A of the service-curve breakpoints) are
/// visited in time order while cursors over S and G advance monotonically,
/// so the whole supremum costs O(|S| + |G|) instead of the
/// O((|S| + |G|)²) of re-evaluating A and G⁻¹ from the origin per
/// candidate (delay_bound_reference below, the pre-optimization form kept
/// as the oracle).  Every candidate's value is computed by the same
/// arithmetic in the same order as the reference.
///
/// The sweep stops at the concave peak (docs/PERFORMANCE.md §4).  A is
/// concave (rates non-increasing) and G convex (capacities non-decreasing),
/// so G's upper inverse is concave and non-decreasing on [0, ∞) and
/// D(t) = G⁻¹(A(t)) - t is concave.  Just after a candidate t, D rises at
/// r/c - 1, with r the arrival rate in force after t and c > 0 the
/// capacity of the service segment holding t's departure; once r <= c no
/// later candidate exceeds D(t).  For exact scalars the result therefore
/// equals the reference's; for double every evaluated candidate is
/// computed bit for bit as the reference computes it, and only a later
/// candidate lifted above the peak by rounding could make them differ.
/// Audit builds sweep on past the stop and check that none is.
///
/// A candidate time equal to the one just evaluated is skipped: its
/// cursors, arithmetic and stop test would repeat exactly.  That is
/// t = 0 two or three times per sweep — the first arrival breakpoint and
/// the preimages of G's breakpoints with G = 0 (G(0), and the end of a
/// saturated start).
template <typename Num>
std::optional<Num> delay_bound_segments(
    std::span<const BasicSegment<Num>> segs,
    std::span<const BasicSegment<Num>> s1_filtered) {
  if (is_zero_segments(segs)) return Num(0);  // no arrivals, no delay
  const ServiceCurve<Num> g(s1_filtered,
                            StreamScratch<Num>::local().service_curve);

  // Unbounded iff arrivals outpace service forever.  Exact for both
  // scalars: a tolerance here would call a queue growing by 1e-9 per cell
  // time stable and admit it (see the header comment).
  if (!(segs.back().rate <= g.tail_capacity())) return std::nullopt;

  const auto gp = g.points();

  // Preimage cursor: `pre` is the next time t with A(t) = G(u_k) for a
  // service breakpoint u_k, computed only once the merge below has taken
  // the previous one; `pk` is the next breakpoint, `k`/`area` the scan's
  // own forward cursor over S.  The G(u_k) are non-decreasing, so the
  // cursor only moves forward (time_of_bits semantics, incrementalized).
  std::size_t pk = 0;
  std::size_t k = 0;
  Num area{0};
  Num pre{};
  bool has_pre = false;

  // Sweep the merged candidate list in time order.  `ak`/`aarea` form the
  // arrival cursor (A(t)), `dk` the departure cursor over G; both only
  // ever move forward because candidate times — and therefore demands —
  // are non-decreasing.
  std::size_t ak = 0;
  Num aarea{0};
  std::size_t dk = 0;
  const std::size_t glast = gp.size() - 1;
  Num best{0};
  std::size_t si = 0;
  bool past_peak = false;  // audit builds only: sweeping on after the stop
  // The last candidate evaluated; candidate times are never negative.
  Num last_t{-1};
  for (;;) {
    // The next preimage, once the merge has taken the previous one.
    while (!has_pre && pk < gp.size()) {
      const Num& bits = gp[pk++].value;
      has_pre = true;
      if (bits <= Num(0)) {
        pre = Num(0);
        break;
      }
      while (k + 1 < segs.size()) {
        const Num gained =
            segs[k].rate * (segs[k + 1].start - segs[k].start);
        if (area + gained >= bits) break;
        area += gained;
        ++k;
      }
      if (k + 1 < segs.size()) {
        // rate > 0 here, or an earlier segment would already have
        // accumulated `bits`.
        pre = segs[k].start + (bits - area) / segs[k].rate;
      } else if (segs[k].rate == Num(0)) {
        // A candidate only if the stream ever produces that much demand.
        // The tolerance can only add one, at a real time whose delay is a
        // true value of D, so it errs toward a larger bound.
        has_pre = NumTraits<Num>::kExact
                      ? (area >= bits)
                      : NumTraits<Num>::nearly_leq(bits, area);
        pre = segs[k].start;
      } else {
        pre = segs[k].start + (bits - area) / segs[k].rate;
      }
    }
    Num t{};
    if (!has_pre || (si < segs.size() && !(pre < segs[si].start))) {
      if (si == segs.size()) break;
      t = segs[si++].start;
    } else {
      t = pre;
      has_pre = false;
    }
    if (t == last_t) continue;
    last_t = t;
    // A(t), incrementally.
    while (ak + 1 < segs.size() && segs[ak + 1].start <= t) {
      aarea += segs[ak].rate * (segs[ak + 1].start - segs[ak].start);
      ++ak;
    }
    const Num a =
        t <= Num(0) ? Num(0) : aarea + segs[ak].rate * (t - segs[ak].start);
    // Departure time inf{u : G(u) > a}, incrementally (upper inverse;
    // flat segments are skipped by the cursor advance).
    while (dk + 1 < gp.size() && !(gp[dk + 1].value > a)) ++dk;
    Num depart{};
    if (dk < glast) {
      depart = gp[dk].start + (a - gp[dk].value) / gp[dk].capacity;
    } else if (gp[glast].capacity > Num(0)) {
      const Num excess = a - gp[glast].value;
      depart = gp[glast].start +
               (excess > Num(0) ? excess / gp[glast].capacity : Num(0));
    } else {
      // Saturated tail: rare, delegate to the reference scan (which ends
      // in the lower inverse when the demand is exactly served).  G is
      // then zero throughout, so the stop below never fired.
      const auto served = g.departure(a);
      if (!served.has_value()) return std::nullopt;  // demand never served
      depart = *served;
    }
    const Num delay = depart - t;
    if (past_peak) {
      RTCAC_INVARIANT_AUDIT(NumTraits<Num>::nearly_leq(delay, best),
                            "delay_bound: a candidate after the stop "
                            "exceeds the concave peak");
      continue;
    }
    if (delay > best) best = delay;
    // D'(t+) = r/c - 1 <= 0: D has peaked.  Two stored numbers compared;
    // c is the capacity where t's bits depart, not where they arrive.
    if (gp[dk].capacity > Num(0) && segs[ak].rate <= gp[dk].capacity) {
      if (!RTCAC_AUDIT_ENABLED) break;
      past_peak = true;
    }
  }
  return best;
}

}  // namespace detail

/// Worst-case queueing delay bound for priority-p arrivals S given the
/// filtered higher-priority arrivals S1 (Algorithm 4.1).  For the highest
/// priority pass the zero stream as S1.  Returns nullopt when unbounded.
/// A thin wrapper over detail::delay_bound_segments.
template <typename Num>
std::optional<Num> delay_bound(const BasicBitStream<Num>& s,
                               const BasicBitStream<Num>& s1_filtered) {
  return detail::delay_bound_segments(s.segments(), s1_filtered.segments());
}

/// Pre-optimization evaluation of the same bound: materialize every
/// candidate, then re-evaluate A (bits_before) and the departure map from
/// the origin for each one.  O((|S| + |G|)²).  Kept verbatim as the
/// reference the sweep is property-tested against and as the baseline the
/// admission benchmark measures (docs/PERFORMANCE.md).
template <typename Num>
std::optional<Num> delay_bound_reference(
    const BasicBitStream<Num>& s, const BasicBitStream<Num>& s1_filtered) {
  if (s.is_zero()) return Num(0);  // no arrivals, no delay
  std::vector<detail::ServicePoint<Num>> curve;
  const detail::ServiceCurve<Num> g(s1_filtered.segments(), curve);

  // Unbounded iff arrivals outpace service forever (exact, as above).
  if (!(s.final_rate() <= g.tail_capacity())) return std::nullopt;

  // Candidate maximizers: breakpoints of S, plus the (earliest) arrival
  // times whose cumulative demand matches the service level at a
  // breakpoint of G — where the departure-time map changes slope.
  std::vector<Num> candidates;
  candidates.reserve(s.size() + g.points().size());
  for (const auto& seg : s.segments()) candidates.push_back(seg.start);
  for (const auto& point : g.points()) {
    if (const auto t = s.time_of_bits(g(point.start)); t.has_value()) {
      candidates.push_back(*t);
    }
  }

  Num best{0};
  for (const Num& t : candidates) {
    const auto depart = g.departure(s.bits_before(t));
    if (!depart.has_value()) return std::nullopt;  // demand never served
    if (*depart - t > best) best = *depart - t;
  }
  return best;
}

/// Worst-case backlog (buffer requirement, in cell times' worth of bits =
/// cells) of the priority-p queue: the vertical deviation
/// sup_t (A(t) - G(t)).  Returns nullopt when unbounded.
template <typename Num>
std::optional<Num> max_backlog(const BasicBitStream<Num>& s,
                               const BasicBitStream<Num>& s1_filtered) {
  if (s.is_zero()) return Num(0);
  std::vector<detail::ServicePoint<Num>> curve;
  const detail::ServiceCurve<Num> g(s1_filtered.segments(), curve);

  if (!(s.final_rate() <= g.tail_capacity())) return std::nullopt;

  // A - G is piecewise linear with breakpoints at the union of both
  // breakpoint sets; its maximum is attained at one of them (the tail
  // slope is non-positive by the stability check).
  Num best{0};
  for (const auto& seg : s.segments()) {
    const Num v = s.bits_before(seg.start) - g(seg.start);
    if (v > best) best = v;
  }
  for (const auto& point : g.points()) {
    const Num v = s.bits_before(point.start) - g(point.start);
    if (v > best) best = v;
  }
  const Num last =
      std::max(s.segments().back().start, g.points().back().start);
  const Num v = s.bits_before(last) - g(last);
  if (v > best) best = v;
  return best;
}

}  // namespace rtcac
