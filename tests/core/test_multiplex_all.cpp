// Property tests for the k-way multiplex: multiplex_all must agree with
// the left-fold of two-way multiplex it replaces on the CAC hot path —
// bitwise for rational-friendly doubles (no tolerance coalescing fires)
// and exactly for the Rational instantiation — plus the
// demultiplex(multiplex(a, b), b) == a round-trip the remove path's
// algebra depends on.  The FusedKernels cases drive the single-pass
// kernels (the k-way merge and the filter emit canonical segments as they
// go) through their coalescing rule, against a reference that sums first
// and canonicalizes after.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>
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

// --- the single-pass kernels against sum-then-canonicalize -------------

template <typename Num>
Num ratio(std::int64_t num, std::int64_t den) {
  if constexpr (NumTraits<Num>::kExact) {
    return Num(num, den);
  } else {
    return static_cast<double>(num) / static_cast<double>(den);
  }
}

/// A 3-to-6-segment stream with rates in (1, 3] whose steps are either
/// dyadic (a multiple of 1/64) or tiny: 1.2e-9 of the rate in double,
/// 2^-30 in Rational.  A tiny double step survives in the stream itself
/// (it is more than 1e-9 of the rate) but not in a sum with another such
/// stream, whose rate is at least 1: aggregates get adjacent rates within
/// 1e-9 relative, and the kernels' coalescing rule fires.
template <typename Num>
BasicBitStream<Num> near_tie_stream(Xorshift& rng) {
  const std::size_t n = 3 + rng.below(4);
  Num rate = ratio<Num>(128 + static_cast<std::int64_t>(rng.below(64)), 64);
  Num t(0);
  std::vector<BasicSegment<Num>> segs{{rate, t}};
  for (std::size_t i = 1; i < n; ++i) {
    t += ratio<Num>(1 + static_cast<std::int64_t>(rng.below(40)), 4);
    if (rng.chance(0.5)) {
      if constexpr (NumTraits<Num>::kExact) {
        rate -= Num(1, std::int64_t{1} << 30);
      } else {
        rate -= 1.2e-9 * rate;
      }
    } else {
      rate -= ratio<Num>(1 + static_cast<std::int64_t>(rng.below(8)), 64);
    }
    segs.push_back({rate, t});
  }
  BasicBitStream<Num> s(std::move(segs));
  EXPECT_EQ(s.size(), n);  // every tiny step survives in the stream
  return s;
}

template <typename Num>
bool same_bits(const Num& a, const Num& b) {
  if constexpr (std::is_same_v<Num, double>) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  } else {
    return a == b;
  }
}

template <typename Num>
void expect_same_segments(std::span<const BasicSegment<Num>> got,
                          const std::vector<BasicSegment<Num>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_TRUE(same_bits(got[k].rate, want[k].rate)) << "segment " << k;
    EXPECT_TRUE(same_bits(got[k].start, want[k].start)) << "segment " << k;
  }
}

/// The union the kernels must emit, computed the long way: at every
/// breakpoint of any input, the left-nested sum of the rates in force in
/// input order (zero inputs included), then one canonicalize_segments
/// pass.  `raw_size` receives the segment count before that pass.
template <typename Num>
std::vector<BasicSegment<Num>> reference_union(
    const std::vector<BasicBitStream<Num>>& streams, std::size_t& raw_size) {
  std::vector<Num> times;
  for (const auto& s : streams) {
    for (const auto& seg : s.segments()) times.push_back(seg.start);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  std::vector<BasicSegment<Num>> out;
  for (const Num& t : times) {
    Num sum(0);
    for (const auto& s : streams) sum += s.rate_at(t);
    out.push_back({sum, t});
  }
  raw_size = out.size();
  BasicBitStream<Num>::canonicalize_segments(out);
  return out;
}

/// Runs both entry points of the k-way kernel on `seeds` seeds of k = 2
/// and k >= 3 near-tie streams with zero streams mixed in; returns how
/// many of the k = 2 and the k >= 3 unions coalesced a segment.
template <typename Num>
std::pair<std::size_t, std::size_t> union_cases_match_reference(
    std::uint64_t seeds) {
  std::size_t coalesced_pairs = 0;
  std::size_t coalesced_wide = 0;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    Xorshift rng(seed * 2862933555777941757ULL + 3);
    for (const std::size_t k : {2u, 3u, 5u, 8u}) {
      std::vector<BasicBitStream<Num>> streams;
      for (std::size_t i = 0; i < k; ++i) {
        streams.push_back(near_tie_stream<Num>(rng));
      }
      for (int z = 0; z < 2; ++z) {
        const auto at = static_cast<std::ptrdiff_t>(rng.below(k + 1));
        streams.insert(streams.begin() + at, BasicBitStream<Num>{});
      }
      std::size_t raw_size = 0;
      const auto want = reference_union(streams, raw_size);
      if (raw_size > want.size()) ++(k == 2 ? coalesced_pairs : coalesced_wide);

      // multiplex_all: the check, the cache fills and rebuild_cell.
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", k " << k);
      const auto merged =
          multiplex_all(std::span<const BasicBitStream<Num>>(streams));
      expect_same_segments(merged.segments(), want);
      // The kernel itself, as the merge tree's node merge calls it: zero
      // inputs reach it there.
      std::vector<detail::SegmentSpan<Num>> spans;
      for (const auto& s : streams) spans.push_back(s.segments());
      std::vector<BasicSegment<Num>> out;
      detail::multiplex_union_canonical<Num>(spans, out);
      expect_same_segments<Num>(out, want);
    }
  }
  return {coalesced_pairs, coalesced_wide};
}

TEST(FusedKernels, UnionCoalescesLikeCanonicalizeDouble) {
  const auto [pairs, wide] = union_cases_match_reference<double>(40);
  // The generator must actually reach the coalescing rule, for both k = 2
  // and k >= 3.
  EXPECT_GT(pairs, 5u);
  EXPECT_GT(wide, 20u);
}

TEST(FusedKernels, UnionMatchesReferenceExactly) {
  const auto [pairs, wide] = union_cases_match_reference<Rational>(40);
  // Exact sums of canonical inputs strictly fall at every breakpoint.
  EXPECT_EQ(pairs, 0u);
  EXPECT_EQ(wide, 0u);
}

/// A stream at rate r0 > 1 until t1, then r1 just below 1 (1 - tiny) until
/// t2, then a low tail (tiny is below 1e-9 in double, 2^-20 steps in
/// Rational): the queue built by t1 drains at t1 + q / tiny,
/// inside the second segment, so the filter emits the post-drain rate r1
/// right after the link rate 1.  Compared with the raw filter output,
/// computed here with the kernel's arithmetic, after canonicalize_segments.
template <typename Num>
void expect_filter_matches_reference(Xorshift& rng, bool expect_coalesced) {
  const Num r0 = ratio<Num>(65 + static_cast<std::int64_t>(rng.below(64)), 64);
  const Num t1 = ratio<Num>(1 + static_cast<std::int64_t>(rng.below(40)), 4);
  const auto steps = static_cast<std::int64_t>(1 + rng.below(9));
  Num tiny;
  if constexpr (NumTraits<Num>::kExact) {
    tiny = Num(steps, std::int64_t{1} << 20);  // the prefix areas fit int64
  } else {
    tiny = 1e-10 * static_cast<double>(steps);
  }
  const Num r1 = Num(1) - tiny;
  const Num queue = (r0 - Num(1)) * (t1 - Num(0));
  const Num drain = t1 + queue / (Num(1) - r1);
  const Num t2 = drain + Num(1 + static_cast<std::int64_t>(rng.below(8)));
  const Num tail = ratio<Num>(static_cast<std::int64_t>(rng.below(32)), 64);
  const BasicBitStream<Num> s{{r0, Num(0)}, {r1, t1}, {tail, t2}};

  std::vector<BasicSegment<Num>> want{{Num(1), Num(0)}, {r1, drain},
                                      {tail, t2}};
  BasicBitStream<Num>::canonicalize_segments(want);
  EXPECT_EQ(want.size(), expect_coalesced ? 2u : 3u);
  expect_same_segments(filter(s).segments(), want);
}

TEST(FusedKernels, FilterPostDrainRateNearOneCoalesces) {
  Xorshift rng(97);
  for (int i = 0; i < 20; ++i) {
    SCOPED_TRACE(i);
    expect_filter_matches_reference<double>(rng, true);
    expect_filter_matches_reference<Rational>(rng, false);
  }
}

}  // namespace
}  // namespace rtcac
