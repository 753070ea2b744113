// Unit tests for the worst-case queueing analysis (paper Section 4.2,
// Algorithm 4.1), including a brute-force numeric oracle.

#include "core/delay_bound.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <vector>

#include "core/stream_ops.h"
#include "core/traffic.h"
#include "util/xorshift.h"

namespace rtcac {
namespace {

// Brute-force oracle: D = sup_t (g(t) - t) with g(t) = inf{u : G(u) > A(t)},
// evaluated on a dense grid with a fine inverse search.  Slow but
// independent of the production code path.
double brute_force_delay_bound(const BitStream& s, const BitStream& hp,
                               double t_max, double dt) {
  double worst = 0;
  for (double t = 0; t <= t_max; t += dt) {
    const double arrived = s.bits_before(t);
    // march u forward until service first exceeds arrived
    double u = t > worst ? 0 : 0;  // always from 0: G is cheap enough here
    double g = 0;
    while (g + 1e-12 < arrived && u < 8 * t_max) {
      u += dt / 4;
      g += (1.0 - hp.rate_at(u - dt / 4)) * (dt / 4);
    }
    // skip trailing zero-capacity plateau
    while (u < 8 * t_max && 1.0 - hp.rate_at(u) <= 1e-12) {
      u += dt / 4;
    }
    worst = std::max(worst, u - t);
  }
  return worst;
}

TEST(DelayBound, ZeroTrafficHasZeroDelay) {
  EXPECT_DOUBLE_EQ(delay_bound(BitStream{}, BitStream{}).value(), 0.0);
}

TEST(DelayBound, FeasibleStreamAloneHasZeroDelay) {
  // Arrival never exceeds the link rate: no queueing.
  const BitStream s{{1.0, 0.0}, {0.25, 1.0}};
  EXPECT_DOUBLE_EQ(delay_bound(s, BitStream{}).value(), 0.0);
}

TEST(DelayBound, HighestPriorityBoundIsMaxQueueBuildup) {
  // Rate 2 for 4 units: backlog peaks at 4 bits == 4 cell times of delay
  // at unit service.
  const BitStream s{{2.0, 0.0}, {0.5, 4.0}};
  EXPECT_DOUBLE_EQ(delay_bound(s, BitStream{}).value(), 4.0);
  EXPECT_DOUBLE_EQ(max_backlog(s, BitStream{}).value(), 4.0);
}

TEST(DelayBound, UnstableAggregateIsUnbounded) {
  EXPECT_FALSE(delay_bound(BitStream::constant(1.2), BitStream{}).has_value());
  EXPECT_FALSE(max_backlog(BitStream::constant(1.2), BitStream{}).has_value());
}

TEST(DelayBound, ExactlyCriticalLoadIsBounded) {
  // Tail rate exactly 1 with a finite early excess: the backlog never
  // grows past its initial hump.
  const BitStream s{{2.0, 0.0}, {1.0, 3.0}};
  EXPECT_DOUBLE_EQ(delay_bound(s, BitStream{}).value(), 3.0);
}

TEST(DelayBound, HigherPriorityTrafficInflatesBound) {
  const BitStream s{{2.0, 0.0}, {0.25, 2.0}};
  const BitStream hp_none;
  const auto hp_half = BitStream::constant(0.5);
  const double d0 = delay_bound(s, hp_none).value();
  const double d1 = delay_bound(s, hp_half).value();
  EXPECT_GT(d1, d0);
  // Service halves, so the 2-bit excess (rate 2 vs capacity ...) grows:
  // A(t) = 2t on [0,2]; G(u) = u/2.  g(2) = 8, D = 6.  After t = 2,
  // arrivals at 0.25 < 0.5 capacity: D shrinks.
  EXPECT_DOUBLE_EQ(d1, 6.0);
}

TEST(DelayBound, SaturatedHigherPriorityWindowBlocksService) {
  // hp occupies the whole link for [0, 10): even a lone cell of lower
  // priority arriving at t = 0 waits the full window.
  const BitStream hp{{1.0, 0.0}, {0.0, 10.0}};
  const BitStream s{{1.0, 0.0}, {0.0, 1.0}};  // one cell at t = 0
  EXPECT_DOUBLE_EQ(delay_bound(s, hp).value(), 10.0);
}

TEST(DelayBound, SaturationWindowAppliesToLateArrivalsToo) {
  // The regression the upper inverse exists for: hp saturates [0, 10) and
  // p-bits trickle in at 0.4 afterward-capacity 0.5.  A bit arriving just
  // after t = 0 departs just after u = 10.
  const BitStream hp{{1.0, 0.0}, {0.5, 10.0}};
  const BitStream s = BitStream::constant(0.4);
  const double d = delay_bound(s, hp).value();
  EXPECT_DOUBLE_EQ(d, 10.0);
}

TEST(DelayBound, FullySaturatedLinkIsUnboundedForAnyTraffic) {
  // A filtered hp stream is non-increasing, so "capacity appears later"
  // cannot happen; the only permanent-saturation case is hp == 1 forever,
  // where any nonzero lower-priority demand starves.
  const auto hp = BitStream::constant(1.0);
  const BitStream one_cell{{1.0, 0.0}, {0.0, 1.0}};
  EXPECT_FALSE(delay_bound(one_cell, hp).has_value());
  EXPECT_DOUBLE_EQ(delay_bound(BitStream{}, hp).value(), 0.0);
}

TEST(DelayBound, MatchesBruteForceOnVbrAggregates) {
  const BitStream a = TrafficDescriptor::vbr(0.5, 0.1, 4).to_bitstream();
  const BitStream b = TrafficDescriptor::vbr(0.4, 0.05, 6).to_bitstream();
  const BitStream c = TrafficDescriptor::cbr(0.2).to_bitstream();
  const BitStream s = multiplex(multiplex(a, b), c);
  const BitStream hp = filter(multiplex(
      TrafficDescriptor::cbr(0.15).to_bitstream(),
      TrafficDescriptor::vbr(0.3, 0.05, 3).to_bitstream()));
  const double exact = delay_bound(s, hp).value();
  const double brute = brute_force_delay_bound(s, hp, 60.0, 0.05);
  EXPECT_NEAR(exact, brute, 0.15) << "analytic vs brute-force drifted";
  EXPECT_GE(exact, brute - 0.15);
}

TEST(DelayBound, MatchesBruteForceWithDistortedArrivals) {
  const BitStream base = TrafficDescriptor::cbr(0.3).to_bitstream();
  const BitStream s = multiplex(delay(base, 12.0), delay(base, 24.0));
  const BitStream hp = filter(delay(
      TrafficDescriptor::vbr(0.6, 0.1, 8).to_bitstream(), 16.0));
  const double exact = delay_bound(s, hp).value();
  const double brute = brute_force_delay_bound(s, hp, 120.0, 0.05);
  EXPECT_NEAR(exact, brute, 0.2);
}

TEST(DelayBound, RejectsUnfilteredHigherPriorityStream) {
  // S1 must be filtered (rate <= 1); feeding a raw aggregate is a caller
  // bug and must be loud.
  const BitStream one_cell{{1.0, 0.0}, {0.0, 1.0}};
  EXPECT_THROW(delay_bound(one_cell, BitStream::constant(1.5)),
               std::invalid_argument);
  EXPECT_THROW(max_backlog(one_cell, BitStream::constant(1.5)),
               std::invalid_argument);
}

TEST(MaxBacklog, VerticalDeviationSimpleCase) {
  // Rate 3 for 2 units against unit service: peak backlog (3-1)*2 = 4.
  const BitStream s{{3.0, 0.0}, {0.2, 2.0}};
  EXPECT_DOUBLE_EQ(max_backlog(s, BitStream{}).value(), 4.0);
}

TEST(MaxBacklog, WithHigherPriorityService) {
  // capacity 0.5; arrivals 2 for 2 units: backlog (2-0.5)*2 = 3.
  const BitStream s{{2.0, 0.0}, {0.2, 2.0}};
  const auto hp = BitStream::constant(0.5);
  EXPECT_DOUBLE_EQ(max_backlog(s, hp).value(), 3.0);
}

TEST(MaxBacklog, NeverExceedsDelayBoundTimesUnitRate) {
  // With unit total service, backlog <= delay bound (service rate <= 1).
  const BitStream s = multiplex(
      TrafficDescriptor::vbr(0.5, 0.1, 6).to_bitstream(),
      delay(TrafficDescriptor::vbr(0.5, 0.2, 4).to_bitstream(), 10.0));
  const auto hp = filter(TrafficDescriptor::vbr(0.4, 0.1, 8).to_bitstream());
  const double backlog = max_backlog(s, hp).value();
  const double bound = delay_bound(s, hp).value();
  EXPECT_LE(backlog, bound + 1e-9);
}

// --- exact instantiation ----------------------------------------------------

TEST(DelayBoundExact, RationalBoundIsExact) {
  // Aggregate of three CBR-like streams at rate 1/3 each arriving as unit
  // bursts: rate 3 for 1 time unit, then 1.  Tail rate exactly 1 ->
  // bounded; queue grows to 2 during [0,1) and then holds: D = 2.
  const ExactBitStream s{{Rational(3), Rational(0)},
                         {Rational(1), Rational(1)}};
  const auto d = delay_bound(s, ExactBitStream{});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, Rational(2));
}

TEST(DelayBoundExact, UnboundedAtStrictOverload) {
  const ExactBitStream s{{Rational(3), Rational(0)},
                         {Rational(101, 100), Rational(1)}};
  EXPECT_FALSE(delay_bound(s, ExactBitStream{}).has_value());
}

// --- the sweep's stop at the concave peak -----------------------------------
//
// The sweep ends at the first candidate after which D(t) cannot rise
// (core/delay_bound.h); delay_bound_reference still scans every
// candidate, so the two must agree.

template <typename Num>
BasicBitStream<Num> envelope(const TrafficDescriptor& td);
template <>
BitStream envelope<double>(const TrafficDescriptor& td) {
  return td.to_bitstream();
}
template <>
ExactBitStream envelope<Rational>(const TrafficDescriptor& td) {
  return td.to_exact_bitstream(32);
}

/// One in-port's cell, built as the check builds it: one to three CBR or
/// VBR connections (rates in 32nds), each distorted by Alg. 3.1 for an
/// upstream CDV, multiplexed, then filtered by the in-link.
template <typename Num>
BasicBitStream<Num> random_cell(Xorshift& rng) {
  BasicBitStream<Num> cell;
  const std::uint64_t connections = 1 + rng.below(3);
  for (std::uint64_t c = 0; c < connections; ++c) {
    const std::uint64_t pcr = 1 + rng.below(16);
    const std::uint64_t scr = 1 + rng.below(std::min<std::uint64_t>(pcr, 4));
    const TrafficDescriptor td =
        rng.below(3) == 0
            ? TrafficDescriptor::cbr(static_cast<double>(pcr) / 32)
            : TrafficDescriptor::vbr(static_cast<double>(pcr) / 32,
                                     static_cast<double>(scr) / 32,
                                     static_cast<std::uint32_t>(
                                         2 + rng.below(15)));
    const Num cdv(static_cast<std::int64_t>(rng.below(4) * 8));
    cell = multiplex(cell, delay(envelope<Num>(td), cdv));
  }
  return filter(cell);
}

/// A queue's offered aggregate (one to three in-port cells) and the
/// filtered aggregate of the traffic above it (none to two cells).
template <typename Num>
struct CheckInputs {
  BasicBitStream<Num> offered;
  BasicBitStream<Num> hp_filtered;
};

template <typename Num>
CheckInputs<Num> random_check_inputs(std::uint64_t seed) {
  Xorshift rng(seed * 7919 + 17);
  CheckInputs<Num> in;
  for (std::uint64_t i = 0, n = 1 + rng.below(3); i < n; ++i) {
    in.offered = multiplex(in.offered, random_cell<Num>(rng));
  }
  BasicBitStream<Num> hp;
  for (std::uint64_t i = 0, n = rng.below(3); i < n; ++i) {
    hp = multiplex(hp, random_cell<Num>(rng));
  }
  in.hp_filtered = filter(hp);
  return in;
}

TEST(DelayBoundStop, MatchesFullScanOnCheckShapedInputsDouble) {
  std::size_t bounded = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    SCOPED_TRACE(seed);
    const auto in = random_check_inputs<double>(seed);
    const auto got = delay_bound(in.offered, in.hp_filtered);
    const auto want = delay_bound_reference(in.offered, in.hp_filtered);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got.has_value()) continue;
    ++bounded;
    EXPECT_TRUE(NumTraits<double>::nearly_equal(*got, *want))
        << *got << " vs " << *want;
  }
  EXPECT_GT(bounded, 250u);
}

TEST(DelayBoundStop, MatchesFullScanOnCheckShapedInputsExact) {
  std::size_t bounded = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    SCOPED_TRACE(seed);
    const auto in = random_check_inputs<Rational>(seed);
    const auto got = delay_bound(in.offered, in.hp_filtered);
    const auto want = delay_bound_reference(in.offered, in.hp_filtered);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got.has_value()) continue;
    ++bounded;
    EXPECT_EQ(*got, *want);
  }
  EXPECT_GT(bounded, 250u);
}

/// delay_bound on a hand-built case, in both scalars, against its known
/// value and against the full scan.  The double engine must land on the
/// same value exactly.
void expect_bound(std::initializer_list<ExactSegment> s,
                  std::initializer_list<ExactSegment> hp,
                  std::optional<Rational> expected) {
  const ExactBitStream es(s);
  const ExactBitStream ehp(hp);
  EXPECT_EQ(delay_bound(es, ehp), expected);
  EXPECT_EQ(delay_bound_reference(es, ehp), expected);
  std::vector<Segment> ds;
  for (const ExactSegment& seg : es.segments()) {
    ds.push_back(Segment{seg.rate.to_double(), seg.start.to_double()});
  }
  std::vector<Segment> dhp;
  for (const ExactSegment& seg : ehp.segments()) {
    dhp.push_back(Segment{seg.rate.to_double(), seg.start.to_double()});
  }
  const BitStream dbl_s(std::move(ds));
  const BitStream dbl_hp(std::move(dhp));
  const std::optional<double> want =
      expected.has_value() ? std::optional<double>(expected->to_double())
                           : std::nullopt;
  EXPECT_EQ(delay_bound(dbl_s, dbl_hp), want);
  EXPECT_EQ(delay_bound_reference(dbl_s, dbl_hp), want);
}

TEST(DelayBoundStop, PlateauWhereArrivalRateEqualsCapacity) {
  // Capacity 1/2 throughout.  D = 2A(t) - t rises to 4 at t = 2, stays 4
  // while arrivals run at exactly 1/2 (the stop fires at t = 2), then
  // falls.
  expect_bound({{Rational(3, 2), Rational(0)},
                {Rational(1, 2), Rational(2)},
                {Rational(1, 4), Rational(6)}},
               {{Rational(1, 2), Rational(0)}}, Rational(4));
}

TEST(DelayBoundStop, PeakAtTimeZeroBehindSaturatingStart) {
  // The higher priority holds the link for [0, 10): the first bit leaves
  // at 10, and arrivals at 2/5 < capacity 1/2 only shrink the delay.  The
  // sweep stops at its first candidate; t = 20 would give D = 6.
  expect_bound({{Rational(2, 5), Rational(0)}, {Rational(1, 5), Rational(20)}},
               {{Rational(1), Rational(0)}, {Rational(1, 2), Rational(10)}},
               Rational(10));
}

TEST(DelayBoundStop, PeakAtTheLastCandidate) {
  // Unit capacity: D rises through t = 4 (D = 4) to t = 6 (D = 5), the
  // last breakpoint, and is flat after it.
  expect_bound({{Rational(2), Rational(0)},
                {Rational(3, 2), Rational(4)},
                {Rational(1), Rational(6)}},
               {{Rational(0), Rational(0)}}, Rational(5));
  // Capacity 1/2 until 10, then 1: the peak is the last candidate, the
  // preimage t = 25/4 of G(10) = 5, where the bits depart at 10.
  expect_bound({{Rational(4, 5), Rational(0)}},
               {{Rational(1, 2), Rational(0)}, {Rational(0), Rational(10)}},
               Rational(15, 4));
}

TEST(DelayBoundStop, ZeroServiceWithZeroDemand) {
  // G = 0: no capacity anywhere, so the stop never fires; zero demand is
  // served at once and any positive demand never.
  expect_bound({{Rational(0), Rational(0)}}, {{Rational(1), Rational(0)}},
               Rational(0));
  expect_bound({{Rational(1, 2), Rational(0)}, {Rational(0), Rational(1)}},
               {{Rational(1), Rational(0)}}, std::nullopt);
}

/// A Rational that counts the arithmetic done on it: the number of
/// operations the sweep spends, whatever they are.
struct Counted {
  static inline std::size_t ops = 0;
  Rational v;

  Counted() = default;
  Counted(std::int64_t x) : v(x) {}  // NOLINT(google-explicit-constructor)
  Counted(Rational x) : v(x) {}      // NOLINT(google-explicit-constructor)

  friend Counted operator+(const Counted& a, const Counted& b) {
    ++ops;
    return a.v + b.v;
  }
  friend Counted operator-(const Counted& a, const Counted& b) {
    ++ops;
    return a.v - b.v;
  }
  friend Counted operator*(const Counted& a, const Counted& b) {
    ++ops;
    return a.v * b.v;
  }
  friend Counted operator/(const Counted& a, const Counted& b) {
    ++ops;
    return a.v / b.v;
  }
  Counted& operator+=(const Counted& b) {
    ++ops;
    v += b.v;
    return *this;
  }
  friend bool operator==(const Counted& a, const Counted& b) {
    return a.v == b.v;
  }
  friend bool operator<(const Counted& a, const Counted& b) {
    return a.v < b.v;
  }
  friend bool operator>(const Counted& a, const Counted& b) {
    return a.v > b.v;
  }
  friend bool operator<=(const Counted& a, const Counted& b) {
    return a.v <= b.v;
  }
  friend bool operator>=(const Counted& a, const Counted& b) {
    return a.v >= b.v;
  }
};

TEST(DelayBoundStop, WorkEndsAtThePeak) {
  if (RTCAC_AUDIT_ENABLED) {
    GTEST_SKIP() << "audit builds sweep past the stop to check it";
  }
  // Capacity 1/10 until 100, then 1.  A burst of 20 bits in one cell time
  // departs at 110: D(1) = 109 is the peak, and from t = 1 on the
  // arrivals (rate 1/2 and less) are slower than the service their bits
  // get.  Each of the `tail` later segments runs above the capacity 1/10
  // in force at its own time, which is not the capacity that serves it.
  const auto ops_with_tail = [](std::int64_t tail) {
    std::vector<BasicSegment<Counted>> s{{Rational(20), Rational(0)}};
    for (std::int64_t j = 0; j < tail; ++j) {
      s.push_back({Rational(200 - j, 400), Rational(1 + j)});
    }
    s.push_back({Rational(0), Rational(1 + tail)});
    const std::vector<BasicSegment<Counted>> hp{
        {Rational(9, 10), Rational(0)}, {Rational(0), Rational(100)}};
    Counted::ops = 0;
    const auto bound = detail::delay_bound_segments<Counted>(s, hp);
    EXPECT_TRUE(bound.has_value() && bound->v == Rational(109));
    return Counted::ops;
  };
  const std::size_t short_tail = ops_with_tail(4);
  EXPECT_EQ(ops_with_tail(40), short_tail);
  EXPECT_EQ(ops_with_tail(160), short_tail);
}

TEST(DelayBoundStop, SaturatedStartEvaluatesTimeZeroOnce) {
  // Behind a link the higher priority holds for [0, 10), t = 0 is a
  // candidate three times: the first arrival breakpoint and the
  // preimages of G(0) = 0 and G(10) = 0.  Behind an idle link it is one
  // twice.  Each sweep must evaluate it once, then t = 2, where the
  // 4 bits of the burst have arrived and the arrivals stop (rate 0 is at
  // most any capacity, so the sweep ends there).  Beyond building G,
  // both sweeps then spend the same arithmetic: one evaluation at t = 0,
  // one at t = 2, and no preimage search (both G = 0 levels are at t =
  // 0).  Evaluating each repeat of t = 0 again would cost the saturated
  // sweep one evaluation more than the idle one.
  const std::vector<BasicSegment<Counted>> s{{Rational(2), Rational(0)},
                                             {Rational(0), Rational(2)}};
  const auto sweep_ops = [&](const std::vector<BasicSegment<Counted>>& hp,
                             const Rational& want) {
    std::vector<detail::ServicePoint<Counted>> storage;
    Counted::ops = 0;
    (void)detail::ServiceCurve<Counted>(hp, storage);
    const std::size_t curve_ops = Counted::ops;
    Counted::ops = 0;
    const auto bound = detail::delay_bound_segments<Counted>(s, hp);
    EXPECT_TRUE(bound.has_value() && bound->v == want);
    return Counted::ops - curve_ops;
  };
  // Saturated until 10, then capacity 1/2: the burst departs at 18.
  const std::size_t saturated = sweep_ops(
      {{Rational(1), Rational(0)}, {Rational(1, 2), Rational(10)}},
      Rational(16));
  // Idle (capacity 1): the burst departs at 4.
  const std::size_t idle = sweep_ops({{Rational(0), Rational(0)}}, Rational(2));
  EXPECT_EQ(saturated, idle);
}

}  // namespace
}  // namespace rtcac
