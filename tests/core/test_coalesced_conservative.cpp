// Admit-side-conservatism property suite for the coalescing merge-tree
// aggregates (core/merge_tree.h, docs/PERFORMANCE.md "Mergeable
// aggregates"): with a non-zero coalescing budget the cached aggregates
// may only OVER-estimate offered load, so for random stream populations
// under churn every connection the coalesced check() admits must also be
// admitted by the exact check_from_scratch() oracle, and every computed
// delay bound must be at least the oracle's — never below, and never
// present where the oracle has none.  Also pins the building blocks:
// coalesce_conservative keeps endpoints, preserves the tail rate and
// yields a pointwise-dominating stream; a budgeted merge tree's root
// dominates the exact fold of its live leaves through arbitrary
// insert/erase interleavings.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/merge_tree.h"
#include "core/stream_ops.h"
#include "core/switch_cac.h"
#include "util/xorshift.h"

namespace rtcac {
namespace {

// Segment-rich arrival: a strictly decreasing rate ladder of 18-25 steps
// (rates i/2048, times multiples of 4 — dyadic, so double sums stay
// exact).  Far above any useful coalescing budget, so the conservative
// rounding actually fires; the VBR descriptors the cache-coherence suite
// uses have too few breakpoints to exercise it.
BitStream random_arrival(Xorshift& rng) {
  const std::size_t steps = 18 + rng.below(8);
  std::vector<Segment> segs;
  double t = 0.0;
  for (std::size_t i = 0; i < steps; ++i) {
    segs.push_back(
        Segment{static_cast<double>(steps - i) / 2048.0, t});
    t += 4.0 * static_cast<double>(1 + rng.below(64));
  }
  return BitStream(std::move(segs));
}

std::vector<Segment> random_canonical_segments(Xorshift& rng) {
  const BitStream stream = random_arrival(rng);
  return {stream.segments().begin(), stream.segments().end()};
}

TEST(CoalesceConservative, KeepsEndpointsDominatesAndPreservesTail) {
  Xorshift rng(1234);
  for (const std::size_t budget : {std::size_t{2}, std::size_t{3},
                                   std::size_t{8}, std::size_t{17}}) {
    for (int trial = 0; trial < 32; ++trial) {
      const std::vector<Segment> original = random_canonical_segments(rng);
      std::vector<Segment> coalesced = original;
      coalesce_conservative(coalesced, budget);

      ASSERT_FALSE(coalesced.empty());
      EXPECT_LE(coalesced.size(), budget);
      // First and last breakpoints survive with their original rates: the
      // initial burst and the sustained (tail) rate are never distorted.
      EXPECT_EQ(coalesced.front().start, original.front().start);
      EXPECT_EQ(coalesced.front().rate, original.front().rate);
      EXPECT_EQ(coalesced.back().start, original.back().start);
      EXPECT_EQ(coalesced.back().rate, original.back().rate);

      const BitStream before{std::vector<Segment>(original)};
      const BitStream after(std::move(coalesced));
      EXPECT_TRUE(after.dominates(before))
          << "budget " << budget << ": coalesced stream must over-estimate";
      EXPECT_EQ(after.final_rate(), before.final_rate());

      // Victim selection is deterministic: same input, same output.
      std::vector<Segment> again = original;
      coalesce_conservative(again, budget);
      EXPECT_TRUE(BitStream(std::move(again)) == after);
    }
  }
}

TEST(CoalesceConservative, BudgetZeroAndSatisfiedBudgetAreNoOps) {
  Xorshift rng(99);
  const std::vector<Segment> original = random_canonical_segments(rng);
  std::vector<Segment> untouched = original;
  coalesce_conservative(untouched, 0);
  EXPECT_EQ(untouched.size(), original.size());
  coalesce_conservative(untouched, original.size() + 5);
  EXPECT_EQ(untouched.size(), original.size());
}

TEST(CoalesceConservative, MergeTreeRootDominatesExactFoldUnderChurn) {
  Xorshift rng(777);
  BasicStreamMergeTree<double> tree(/*coalesce_budget=*/8);
  std::vector<std::pair<std::size_t, BitStream>> live;  // slot, stream

  for (int step = 0; step < 120; ++step) {
    if (live.empty() || rng.below(3) != 0) {
      BitStream s = random_arrival(rng);
      const std::size_t slot = tree.insert(s);
      live.emplace_back(slot, std::move(s));
    } else {
      const std::size_t victim = rng.below(live.size());
      tree.erase(live[victim].first);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    const BitStream aggregate = tree.aggregate();
    ASSERT_TRUE(tree.coherent());
    ASSERT_EQ(tree.size(), live.size());

    BitStream fold;
    double tail = 0.0;
    for (const auto& [slot, s] : live) {
      fold = multiplex(fold, s);
      tail += s.final_rate();
    }
    ASSERT_TRUE(aggregate.dominates(fold))
        << "step " << step << ": budgeted root must dominate the fold";
    // Conservatism never inflates the sustained rate: coalescing drops
    // interior breakpoints only, so the tail sum is preserved exactly.
    EXPECT_EQ(aggregate.final_rate(), tail);
  }
}

// The oracle gate, shared by the churn suites below.  `exact_mode` picks
// between bit-identity (budget 0) and admit-side dominance (budget > 0).
void expect_conservative(const SwitchCac& cac, Xorshift& rng,
                         std::size_t trials, bool exact_mode) {
  for (std::size_t t = 0; t < trials; ++t) {
    const std::size_t in = rng.below(3);
    const std::size_t out = rng.below(2);
    const auto prio = static_cast<Priority>(rng.below(3));
    const BitStream arrival = random_arrival(rng);
    const SwitchCheckResult fast = cac.check(in, out, prio, arrival);
    const SwitchCheckResult slow =
        cac.check_from_scratch(in, out, prio, arrival);

    if (exact_mode) {
      ASSERT_EQ(fast.admitted, slow.admitted)
          << "cached: " << fast.reason << " / scratch: " << slow.reason;
    } else if (fast.admitted) {
      ASSERT_TRUE(slow.admitted)
          << "coalesced admits a connection the exact oracle rejects ("
          << slow.reason << ")";
    }
    ASSERT_EQ(fast.bounds.size(), slow.bounds.size());
    for (std::size_t q = 0; q < fast.bounds.size(); ++q) {
      const auto& a = fast.bounds[q];
      const auto& b = slow.bounds[q];
      if (exact_mode) {
        ASSERT_EQ(a.has_value(), b.has_value()) << "priority " << q;
        if (a) {
          EXPECT_TRUE(NumTraits<double>::nearly_equal(*a, *b))
              << "priority " << q;
        }
        continue;
      }
      // Conservative: losing a bound is allowed (more load, no bound),
      // gaining one is optimism; a present bound must never decrease.
      if (a.has_value()) {
        ASSERT_TRUE(b.has_value())
            << "coalesced bounds priority " << q
            << " where the exact oracle cannot";
        EXPECT_FALSE(*a < *b && !NumTraits<double>::nearly_equal(*a, *b))
            << "coalesced bound " << *a << " below oracle bound " << *b
            << " at priority " << q;
      }
    }
  }
}

class CoalescedChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescedChurnTest,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST_P(CoalescedChurnTest, AdmitsOnlyWhatTheOracleAdmits) {
  Xorshift rng(GetParam() * 2000003 + 17);
  SwitchCac::Config cfg;
  cfg.in_ports = 3;
  cfg.out_ports = 2;
  cfg.priorities = 3;
  cfg.advertised_bound = 512.0;
  cfg.coalesce_budget = 8;  // far below the ~20-segment arrivals
  SwitchCac cac(cfg);

  ConnectionId next_id = 1;
  std::vector<ConnectionId> admitted;
  double now = 0.0;
  for (int step = 0; step < 60; ++step) {
    now += 1.0;
    const std::size_t op = rng.below(admitted.size() < 8 ? 2 : 4);
    if (op < 2) {  // admit (half of them leased, reclaimable)
      const std::size_t in = rng.below(cfg.in_ports);
      const std::size_t out = rng.below(cfg.out_ports);
      const auto prio = static_cast<Priority>(rng.below(cfg.priorities));
      BitStream arrival = random_arrival(rng);
      if (cac.check(in, out, prio, arrival).admitted) {
        const double lease = rng.below(2) == 0
                                 ? now + 5.0
                                 : SwitchCac::kPermanentLease;
        cac.add(next_id, in, out, prio, arrival, lease);
        admitted.push_back(next_id);
        ++next_id;
      }
    } else if (op == 2) {  // teardown
      const std::size_t victim = rng.below(admitted.size());
      if (cac.remove(admitted[victim])) {
        admitted.erase(admitted.begin() +
                       static_cast<std::ptrdiff_t>(victim));
      }
    } else {  // orphan sweep
      for (const ConnectionId id : cac.reclaim(now)) {
        std::erase(admitted, id);
      }
    }
    if (step % 10 == 0 || step == 59) {
      ASSERT_TRUE(cac.state_consistent()) << "step " << step;
      ASSERT_TRUE(cac.cache_coherent()) << "step " << step;
      expect_conservative(cac, rng, 6, /*exact_mode=*/false);
    }
  }
  // Steady-state churn must be recycling arena buffers, not allocating.
  const CacArenaStats stats = cac.arena_stats();
  EXPECT_GT(stats.arena_reuses, 0u);
  EXPECT_LE(stats.arena_reuses, stats.arena_acquires);
}

TEST(CoalescedConservative, ExactModeStaysDecisionIdenticalOnRichStreams) {
  // Budget 0: the merge-tree backend must be invisible — decisions
  // bit-identical to the from-scratch oracle even on the segment-rich
  // ladders the coherence suite's VBR descriptors never produce.
  Xorshift rng(4242);
  SwitchCac::Config cfg;
  cfg.in_ports = 3;
  cfg.out_ports = 2;
  cfg.priorities = 3;
  cfg.advertised_bound = 512.0;
  SwitchCac cac(cfg);
  for (ConnectionId id = 1; id <= 24; ++id) {
    const std::size_t in = rng.below(cfg.in_ports);
    const std::size_t out = rng.below(cfg.out_ports);
    const auto prio = static_cast<Priority>(rng.below(cfg.priorities));
    BitStream arrival = random_arrival(rng);
    if (cac.check(in, out, prio, arrival).admitted) {
      cac.add(id, in, out, prio, arrival);
    }
    if (id % 3 == 0) cac.remove(id - 2);
  }
  ASSERT_TRUE(cac.state_consistent());
  expect_conservative(cac, rng, 24, /*exact_mode=*/true);
}

TEST(CoalescedConservative, RationalDominanceIsBoundaryExact) {
  // The exact scalar pins the conservative contract without tolerance:
  // a budget-2 aggregate of two-step Rational streams dominates the fold
  // with exact arithmetic at every breakpoint.
  BasicStreamMergeTree<Rational> tree(/*coalesce_budget=*/2);
  using RSeg = BasicSegment<Rational>;
  using RStream = BasicBitStream<Rational>;
  std::vector<RStream> leaves;
  for (int i = 1; i <= 5; ++i) {
    leaves.push_back(RStream{RSeg{Rational(3 + i, 8), Rational(0)},
                             RSeg{Rational(2, 8), Rational(4 * i)},
                             RSeg{Rational(1, 8), Rational(8 * i)}});
    (void)tree.insert(leaves.back());
  }
  const RStream aggregate = tree.aggregate();
  ASSERT_TRUE(tree.coherent());
  EXPECT_LE(aggregate.size(), 2u);

  RStream fold;
  for (const RStream& s : leaves) fold = multiplex(fold, s);
  EXPECT_TRUE(aggregate.dominates(fold));
  EXPECT_EQ(aggregate.final_rate(), fold.final_rate());
}

}  // namespace
}  // namespace rtcac
