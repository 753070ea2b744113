// Property tests for the k-way multiplex: multiplex_all must agree with
// the left-fold of two-way multiplex it replaces on the CAC hot path —
// bitwise for rational-friendly doubles (no tolerance coalescing fires)
// and exactly for the Rational instantiation — plus the
// demultiplex(multiplex(a, b), b) == a round-trip the remove path's
// algebra depends on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/stream_ops.h"
#include "util/xorshift.h"

namespace rtcac {
namespace {

// Random non-increasing step stream with rational-friendly values: rates
// are multiples of 1/rate_den in [0, max_rate], times multiples of 1/4.
// Sums of such rates are exact in double, so fold and k-way results must
// be bit-identical, not merely within tolerance.
BitStream random_stream(Xorshift& rng, double max_rate = 1.0,
                        std::size_t max_segments = 6,
                        std::size_t min_segments = 1,
                        std::int64_t rate_den = 64) {
  const std::size_t n =
      min_segments + rng.below(max_segments - min_segments + 1);
  const auto den = static_cast<double>(rate_den);
  std::vector<double> rates;
  for (std::size_t i = 0; i < n; ++i) {
    rates.push_back(static_cast<double>(rng.below(
                        static_cast<std::uint64_t>(max_rate * den) + 1)) /
                    den);
  }
  std::sort(rates.rbegin(), rates.rend());
  std::vector<Segment> segs;
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    segs.push_back(Segment{rates[i], t});
    t += 0.25 * static_cast<double>(1 + rng.below(40));
  }
  return BitStream(std::move(segs));
}

ExactBitStream to_exact(const BitStream& s, std::int64_t rate_den = 64) {
  const auto den = static_cast<double>(rate_den);
  std::vector<ExactSegment> segs;
  for (const auto& seg : s.segments()) {
    segs.push_back(ExactSegment{
        Rational(static_cast<std::int64_t>(std::lround(seg.rate * den)),
                 rate_den),
        Rational(static_cast<std::int64_t>(std::lround(seg.start * 4)), 4)});
  }
  return ExactBitStream(std::move(segs));
}

template <typename Num>
BasicBitStream<Num> fold_multiplex(
    const std::vector<BasicBitStream<Num>>& streams) {
  BasicBitStream<Num> aggr;
  for (const auto& s : streams) aggr = multiplex(aggr, s);
  return aggr;
}

class MultiplexAllTest : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, MultiplexAllTest,
                         ::testing::Range<std::uint64_t>(0, 50));

TEST_P(MultiplexAllTest, MatchesLeftFoldBitwise) {
  Xorshift rng(GetParam() * 2654435761 + 17);
  const std::size_t k = 2 + rng.below(7);
  std::vector<BitStream> streams;
  for (std::size_t i = 0; i < k; ++i) streams.push_back(random_stream(rng));
  EXPECT_EQ(multiplex_all(std::span<const BitStream>(streams)),
            fold_multiplex(streams));
}

TEST_P(MultiplexAllTest, MatchesLeftFoldExactly) {
  Xorshift rng(GetParam() * 6364136223846793005 + 29);
  const std::size_t k = 2 + rng.below(7);
  std::vector<ExactBitStream> streams;
  for (std::size_t i = 0; i < k; ++i) {
    streams.push_back(to_exact(random_stream(rng)));
  }
  EXPECT_EQ(multiplex_all(std::span<const ExactBitStream>(streams)),
            fold_multiplex(streams));
}

TEST_P(MultiplexAllTest, ZeroStreamsContributeNothing) {
  Xorshift rng(GetParam() * 40503 + 3);
  const BitStream a = random_stream(rng);
  const BitStream b = random_stream(rng);
  const std::vector<BitStream> padded{BitStream{}, a, BitStream{}, b,
                                      BitStream{}};
  EXPECT_EQ(multiplex_all(std::span<const BitStream>(padded)),
            multiplex(a, b));
}

TEST_P(MultiplexAllTest, DemultiplexRoundTrip) {
  Xorshift rng(GetParam() * 94906249 + 11);
  const BitStream a = random_stream(rng);
  const BitStream b = random_stream(rng);
  EXPECT_EQ(demultiplex(multiplex(a, b), b), a);
  const ExactBitStream ea = to_exact(a);
  const ExactBitStream eb = to_exact(b);
  EXPECT_EQ(demultiplex(multiplex(ea, eb), eb), ea);
}

TEST_P(MultiplexAllTest, DemultiplexUnwindsKWayAggregate) {
  Xorshift rng(GetParam() * 15485863 + 7);
  const std::size_t k = 2 + rng.below(5);
  std::vector<BitStream> streams;
  for (std::size_t i = 0; i < k; ++i) streams.push_back(random_stream(rng));
  // Peel components off the k-way aggregate back-to-front; each step must
  // land exactly on the aggregate of the remaining prefix.
  BitStream aggr = multiplex_all(std::span<const BitStream>(streams));
  for (std::size_t i = k; i-- > 1;) {
    aggr = demultiplex(aggr, streams[i]);
    const std::vector<BitStream> prefix(streams.begin(),
                                        streams.begin() + i);
    EXPECT_EQ(aggr, multiplex_all(std::span<const BitStream>(prefix)));
  }
  EXPECT_EQ(aggr, streams.front());
}

// Wide merges of long streams.  The input counts straddle the k-way
// merge's switch from a linear cursor scan to a heap and pass 64, so the
// per-thread cursor arrays must grow (a fixed 64-entry array overflows
// here); inputs of 64+ segments grow the output buffers too.
TEST(MultiplexAll, WideMergesOfLongStreamsMatchLeftFold) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Xorshift rng(seed * 1442695040888963407 + 5);
    for (const std::size_t k : {20u, 40u, 65u, 130u}) {
      std::vector<BitStream> streams;
      std::vector<ExactBitStream> exact;
      for (std::size_t i = 0; i < k; ++i) {
        streams.push_back(random_stream(rng, 1.0, 90, 76, 1024));
        ASSERT_GE(streams.back().size(), 64u);
        exact.push_back(to_exact(streams.back(), 1024));
      }
      EXPECT_EQ(multiplex_all(std::span<const BitStream>(streams)),
                fold_multiplex(streams))
          << k << " inputs, seed " << seed;
      EXPECT_EQ(multiplex_all(std::span<const ExactBitStream>(exact)),
                fold_multiplex(exact))
          << k << " inputs, seed " << seed;
    }
  }
}

TEST(MultiplexAll, EmptySetIsZero) {
  EXPECT_TRUE(
      multiplex_all(std::span<const BitStream>{}).is_zero());
  const std::vector<const BitStream*> nulls{nullptr, nullptr};
  EXPECT_TRUE(multiplex_all(nulls).is_zero());
}

TEST(MultiplexAll, SingleStreamPassesThrough) {
  const BitStream s{Segment{0.5, 0.0}, Segment{0.25, 4.0}};
  const std::vector<const BitStream*> one{nullptr, &s};
  EXPECT_EQ(multiplex_all(one), s);
}

TEST(MultiplexAll, KnownAggregate) {
  const BitStream a{Segment{0.5, 0.0}, Segment{0.25, 4.0}};
  const BitStream b{Segment{0.25, 0.0}, Segment{0.125, 2.0}};
  const BitStream c{Segment{1.0, 0.0}, Segment{0.0, 8.0}};
  const std::vector<BitStream> all{a, b, c};
  const BitStream expect{Segment{1.75, 0.0}, Segment{1.625, 2.0},
                         Segment{1.375, 4.0}, Segment{0.375, 8.0}};
  EXPECT_EQ(multiplex_all(std::span<const BitStream>(all)), expect);
}

}  // namespace
}  // namespace rtcac
