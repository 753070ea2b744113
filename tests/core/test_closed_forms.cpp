// Closed-form checks: configurations whose worst-case bounds can be
// derived by hand, swept parametrically, in both scalar types.  These
// catch constant-factor and off-by-one-segment errors that randomized
// dominance properties cannot.

#include <gtest/gtest.h>

#include "core/delay_bound.h"
#include "core/stream_ops.h"
#include "core/traffic.h"

namespace rtcac {
namespace {

// --- N aligned CBR streams through one queue --------------------------------
//
// Each stream contributes (1, 0), (R, 1); the aggregate is rate N for one
// cell time, then N*R.  With unit service and N*R <= 1, the queue peaks
// at t = 1 with N - 1 cells, so the delay bound is exactly N - 1.

class AlignedCbr : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(N, AlignedCbr, ::testing::Values(2, 3, 5, 8, 16));

TEST_P(AlignedCbr, BoundIsExactlyNMinusOne) {
  const int n = GetParam();
  const double rate = 0.9 / n;  // N*R = 0.9 < 1
  BitStream aggregate;
  for (int i = 0; i < n; ++i) {
    aggregate =
        multiplex(aggregate, TrafficDescriptor::cbr(rate).to_bitstream());
  }
  EXPECT_NEAR(delay_bound(aggregate, BitStream{}).value(),
              static_cast<double>(n - 1), 1e-9);
  EXPECT_NEAR(max_backlog(aggregate, BitStream{}).value(),
              static_cast<double>(n - 1), 1e-9);
}

TEST_P(AlignedCbr, ExactArithmeticAgrees) {
  const int n = GetParam();
  ExactBitStream aggregate;
  for (int i = 0; i < n; ++i) {
    // R = 9/(10n): N*R = 9/10 exactly.
    aggregate = multiplex(
        aggregate, ExactBitStream{{Rational(1), Rational(0)},
                                  {Rational(9, 10 * n), Rational(1)}});
  }
  EXPECT_EQ(delay_bound(aggregate, ExactBitStream{}).value(),
            Rational(n - 1));
}

// --- N aligned VBR bursts ----------------------------------------------------
//
// N aligned VBR(PCR, SCR, MBS) envelopes: each ramps one cell at rate 1,
// then PCR until its burst of MBS cells is out (t2 = 1 + (MBS-1)/PCR),
// then SCR.  For N*PCR > 1 > N*SCR the aggregate queue peaks at t2 with
// N*MBS - t2 cells.

struct VbrCase {
  int n;
  double pcr;
  double scr;
  std::uint32_t mbs;
};

// Without it gtest prints the raw bytes, padding included, into the ctest
// name, which then differs between builds.
void PrintTo(const VbrCase& c, std::ostream* os) {
  *os << "(" << c.n << ", " << c.pcr << ", " << c.scr << ", " << c.mbs
      << ")";
}

class AlignedVbr : public ::testing::TestWithParam<VbrCase> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, AlignedVbr,
    ::testing::Values(VbrCase{3, 0.5, 0.05, 4}, VbrCase{4, 0.4, 0.02, 6},
                      VbrCase{8, 0.25, 0.01, 3}, VbrCase{2, 0.9, 0.1, 10}));

TEST_P(AlignedVbr, PeakBacklogMatchesHandDerivation) {
  const VbrCase c = GetParam();
  ASSERT_GT(c.n * c.pcr, 1.0);
  ASSERT_LT(c.n * c.scr, 1.0);
  BitStream aggregate;
  for (int i = 0; i < c.n; ++i) {
    aggregate = multiplex(
        aggregate,
        TrafficDescriptor::vbr(c.pcr, c.scr, c.mbs).to_bitstream());
  }
  const double t2 = 1.0 + static_cast<double>(c.mbs - 1) / c.pcr;
  const double expected = c.n * c.mbs - t2;  // bits in minus bits served
  EXPECT_NEAR(max_backlog(aggregate, BitStream{}).value(), expected, 1e-9);
  // With unit service the delay bound equals the peak backlog here (the
  // maximum is attained while the queue drains at full rate).
  EXPECT_NEAR(delay_bound(aggregate, BitStream{}).value(), expected, 1e-9);
}

TEST_P(AlignedCbr, MatchesThePapersVbrEquivalenceNote) {
  // Paper, Section 5: "the worst-case aggregated traffic from N CBR
  // connections with a peak cell rate R is the same as that of a VBR
  // connection with PCR = N, SCR = N*R, MBS = N" — as a stream identity:
  // the multiplexed envelope is exactly {(N, 0), (N*R, 1)}.
  const int n = GetParam();
  const double rate = 0.9 / n;
  BitStream aggregate;
  for (int i = 0; i < n; ++i) {
    aggregate =
        multiplex(aggregate, TrafficDescriptor::cbr(rate).to_bitstream());
  }
  const BitStream vbr_like{{static_cast<double>(n), 0.0}, {n * rate, 1.0}};
  EXPECT_TRUE(aggregate.nearly_equal(vbr_like))
      << aggregate << " vs " << vbr_like;
}

// --- one low-priority cell behind a high-priority clump ----------------------
//
// The filtered hp stream saturates the link on [0, L) and then goes
// silent; a lone lp cell arriving at t = 0 sits out exactly the clump:
// its last bit (arriving at t = 1) departs at L + 1, having waited L.
// If hp keeps a residual rate r after the clump, the tail contention
// adds r/(1-r): the closed form is L + r/(1-r) - hand-derived both ways.

class ClumpBlocking : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(L, ClumpBlocking,
                         ::testing::Values(1.0, 4.0, 32.0, 480.0));

TEST_P(ClumpBlocking, LowPriorityWaitsOutTheClump) {
  const double clump = GetParam();
  const BitStream lone_cell{{1.0, 0.0}, {0.0, 1.0}};
  const BitStream hp_silent{{1.0, 0.0}, {0.0, clump}};
  EXPECT_NEAR(delay_bound(lone_cell, hp_silent).value(), clump, 1e-9);

  const double residual = 0.25;
  const BitStream hp_residual{{1.0, 0.0}, {residual, clump}};
  EXPECT_NEAR(delay_bound(lone_cell, hp_residual).value(),
              clump + residual / (1.0 - residual), 1e-9);
}

// --- CDV distortion of a CBR stream ------------------------------------------
//
// delay(CBR(R), cdv) runs at rate 1 until the clumped prefix drains: the
// shifted stream is plain rate R (for cdv >= 1 the full-rate head lies
// inside the prefix) with initial backlog A(cdv) = 1 + (cdv-1) R, so the
// queue A(cdv) + R t - t empties at T = A(cdv) / (1 - R) and the output
// is exactly {(1, 0), (R, T)}.

class CbrDistortion
    : public ::testing::TestWithParam<std::pair<double, double>> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, CbrDistortion,
    ::testing::Values(std::make_pair(0.25, 8.0), std::make_pair(0.5, 32.0),
                      std::make_pair(0.1, 480.0),
                      std::make_pair(0.8, 96.0)));

TEST_P(CbrDistortion, FullRatePeriodMatchesClosedForm) {
  const auto [rate, cdv] = GetParam();
  const BitStream out =
      delay(TrafficDescriptor::cbr(rate).to_bitstream(), cdv);
  const double accumulated = 1.0 + (cdv - 1.0) * rate;  // A(cdv)
  const double t_drain = accumulated / (1.0 - rate);
  ASSERT_EQ(out.size(), 2u) << out;
  EXPECT_DOUBLE_EQ(out.segments()[0].rate, 1.0);
  EXPECT_NEAR(out.segments()[1].start, t_drain, 1e-9) << out;
  EXPECT_DOUBLE_EQ(out.segments()[1].rate, rate);
}

// --- filter against a fluid-integration oracle --------------------------------

double fluid_filter_output(const BitStream& input, double horizon,
                           double dt, double t_query) {
  // Integrates the queue dQ = r - 1 (clamped at 0) and accumulates the
  // transmitted bits; independent of the analytic drain-point logic.
  double queue = 0;
  double sent = 0;
  for (double t = 0; t < std::min(horizon, t_query); t += dt) {
    const double in = input.rate_at(t) * dt;
    const double capacity = dt;
    if (queue + in <= capacity) {
      sent += queue + in;
      queue = 0;
    } else {
      sent += capacity;
      queue = queue + in - capacity;
    }
  }
  return sent;
}

TEST(FilterOracle, AnalyticFilterMatchesFluidIntegration) {
  const BitStream cases[] = {
      multiplex(TrafficDescriptor::vbr(0.5, 0.1, 4).to_bitstream(),
                TrafficDescriptor::vbr(0.8, 0.05, 6).to_bitstream()),
      multiplex(multiplex(TrafficDescriptor::cbr(0.5).to_bitstream(),
                          TrafficDescriptor::cbr(0.4).to_bitstream()),
                TrafficDescriptor::vbr(0.3, 0.02, 12).to_bitstream()),
  };
  for (const BitStream& input : cases) {
    const BitStream output = filter(input);
    for (const double t : {0.5, 1.0, 3.0, 7.5, 20.0, 60.0}) {
      EXPECT_NEAR(output.bits_before(t),
                  fluid_filter_output(input, 100.0, 1e-3, t), 2e-2)
          << "t=" << t << " input=" << input;
    }
  }
}

}  // namespace
}  // namespace rtcac
