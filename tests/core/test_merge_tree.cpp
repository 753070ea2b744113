// Direct property suite for BasicStreamMergeTree (core/merge_tree.h):
// seeded insert/erase sequences, which grow the tree from one slot to
// 64, for both scalar instantiations, in exact mode and at coalescing
// budgets 2 and 8.  After every aggregate() the suite checks that
//
//   * coherent() holds (every node re-derives from its children);
//   * the root is the multiplex of the live leaves: bitwise in exact
//     mode (Rational, and double with dyadic rates, whose sums are
//     exact), and in coalescing mode a stream that dominates it with
//     the same tail rate;
//   * held_segments() equals a recount of the leaves plus every node,
//     each node recomputed here from its children;
//
// and that steady-state churn rebuilds nodes in their own buffers: once
// a cycle of leaf replacements has run, running it again keeps
// held_bytes() flat and counts every rebuild as a reuse.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "core/merge_tree.h"
#include "core/stream_ops.h"
#include "util/xorshift.h"

namespace rtcac {
namespace {

template <typename Num>
Num ratio(std::int64_t num, std::int64_t den) {
  if constexpr (NumTraits<Num>::kExact) {
    return Num(num, den);
  } else {
    return static_cast<double>(num) / static_cast<double>(den);
  }
}

/// A non-zero stream of 1 to 6 steps: rates k/64 (non-increasing, the
/// last at least 1/64), breakpoints at multiples of 1/4.  Dyadic, so
/// double sums are exact and Rational denominators stay small.
template <typename Num>
BasicBitStream<Num> random_leaf(Xorshift& rng) {
  const std::size_t steps = 1 + rng.below(6);
  std::vector<BasicSegment<Num>> segs;
  auto rate = static_cast<std::int64_t>(steps + rng.below(40));
  std::int64_t quarter = 0;
  for (std::size_t k = 0; k < steps; ++k) {
    segs.push_back(
        BasicSegment<Num>{ratio<Num>(rate, 64), ratio<Num>(quarter, 4)});
    rate -= static_cast<std::int64_t>(1 + rng.below(3));
    if (rate < 1) rate = 1;
    quarter += static_cast<std::int64_t>(1 + rng.below(64));
  }
  return BasicBitStream<Num>(std::move(segs));
}

/// A tree under test plus the leaves it should hold, by slot.
template <typename Num>
class Harness {
 public:
  using Stream = BasicBitStream<Num>;
  using Segments = std::vector<BasicSegment<Num>>;

  explicit Harness(std::size_t budget) : tree_(budget), budget_(budget) {}

  std::size_t insert(Stream leaf) {
    const std::size_t slot = tree_.insert(leaf);
    if (slot >= leaves_.size()) leaves_.resize(slot + 1);
    EXPECT_TRUE(leaves_[slot].is_zero()) << "slot " << slot << " reused live";
    leaves_[slot] = std::move(leaf);
    live_.push_back(slot);
    return slot;
  }

  /// Erases the live slot at position `pos` of the live list; returns
  /// the slot and the stream it held.
  std::pair<std::size_t, Stream> erase_at(std::size_t pos) {
    const std::size_t slot = live_[pos];
    tree_.erase(slot);
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(pos));
    return {slot, std::exchange(leaves_[slot], Stream{})};
  }

  /// Puts `leaf` in place of the live leaf at `slot`: an erase and an
  /// insert, which the tree's free list sends back to the same slot.
  Stream replace(std::size_t slot, Stream leaf) {
    std::size_t pos = 0;
    while (live_[pos] != slot) ++pos;
    Stream old = erase_at(pos).second;
    EXPECT_EQ(insert(std::move(leaf)), slot);
    return old;
  }

  /// aggregate() plus the per-aggregate checks of the header comment.
  void aggregate_and_check(const char* where) {
    SCOPED_TRACE(where);
    const Stream root = tree_.aggregate();
    ASSERT_TRUE(tree_.coherent());
    ASSERT_EQ(tree_.size(), live_.size());
    EXPECT_EQ(tree_.materialized(), root);

    std::vector<const Stream*> parts;
    Num tail{0};
    for (const std::size_t slot : live_) {
      ASSERT_TRUE(tree_.leaf_live(slot));
      ASSERT_EQ(tree_.leaf(slot), leaves_[slot]);
      parts.push_back(&leaves_[slot]);
      tail += leaves_[slot].final_rate();
    }
    const Stream fold = multiplex_all(parts);
    if (budget_ == 0) {
      ASSERT_EQ(root, fold) << root.to_string() << " vs " << fold.to_string();
    } else {
      ASSERT_TRUE(root.dominates(fold));
      ASSERT_EQ(root.final_rate(), tail);
      if (!live_.empty()) {
        ASSERT_LE(root.size(), budget_);
      }
    }

    std::size_t recount = 0;
    for (const std::size_t slot : live_) recount += leaves_[slot].size();
    for (const Segments& node : rebuild_nodes()) recount += node.size();
    ASSERT_EQ(tree_.held_segments(), recount);
    ASSERT_GE(tree_.peak_segments(), recount);
  }

  [[nodiscard]] const BasicStreamMergeTree<Num>& tree() const {
    return tree_;
  }
  [[nodiscard]] std::size_t live_count() const { return live_.size(); }
  [[nodiscard]] std::size_t live_slot(std::size_t pos) const {
    return live_[pos];
  }

 private:
  /// The internal nodes of the implicit heap (nodes 1 .. capacity - 1;
  /// leaf slot s sits at capacity + s), rebuilt here from the leaves:
  /// each the canonical merge of its two children, capped at the budget,
  /// and empty for a subtree without live leaves.
  [[nodiscard]] std::vector<Segments> rebuild_nodes() const {
    const std::size_t capacity = tree_.capacity();
    std::vector<Segments> nodes(capacity);
    const auto child = [&](std::size_t idx) -> detail::SegmentSpan<Num> {
      if (idx < capacity) return nodes[idx];
      const std::size_t slot = idx - capacity;
      if (!tree_.leaf_live(slot)) return {};
      return leaves_[slot].segments();
    };
    for (std::size_t i = capacity; i-- > 1;) {
      const detail::SegmentSpan<Num> left = child(2 * i);
      const detail::SegmentSpan<Num> right = child(2 * i + 1);
      Segments& out = nodes[i];
      if (left.empty() || right.empty()) {
        const detail::SegmentSpan<Num> only = left.empty() ? right : left;
        out.assign(only.begin(), only.end());
      } else {
        const detail::SegmentSpan<Num> children[] = {left, right};
        const detail::SegmentSpan<Num> merged =
            detail::multiplex_all_segments<Num>(children, out);
        if (merged.data() != out.data()) {
          out.assign(merged.begin(), merged.end());
        }
      }
      coalesce_conservative(out, budget_);
    }
    nodes.erase(nodes.begin());  // node 0 is not a node
    return nodes;
  }

  BasicStreamMergeTree<Num> tree_;
  std::size_t budget_;
  std::vector<Stream> leaves_;     // by slot; zero when not live
  std::vector<std::size_t> live_;  // live slots, in insertion order
};

constexpr std::size_t kMaxLeaves = 40;

/// Random inserts and erases, one to three between aggregates, growing
/// the tree to 64 slots and churning it there.
template <typename Num>
void run_random_sequence(std::size_t budget, std::uint64_t seed) {
  Xorshift rng(seed * 7919 + 3);
  Harness<Num> h(budget);
  h.aggregate_and_check("empty tree");
  for (int round = 0; round < 160; ++round) {
    // Inserts four times in five for the first 60 rounds, half the time
    // after.
    const std::uint64_t one_in = round < 60 ? 5 : 2;
    for (std::uint64_t op = 0, n = 1 + rng.below(3); op < n; ++op) {
      const bool insert =
          h.live_count() == 0 ||
          (h.live_count() < kMaxLeaves && rng.below(one_in) != 0);
      if (insert) {
        (void)h.insert(random_leaf<Num>(rng));
      } else {
        (void)h.erase_at(rng.below(h.live_count()));
      }
    }
    h.aggregate_and_check("random round");
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(h.tree().capacity(), 32u);

  // Steady state: replace up to eight live leaves one at a time, then put
  // the originals back in reverse order, aggregating after each
  // replacement.  The cycle ends where it started (also when a slot is
  // drawn twice), so its second run rebuilds every node from the children
  // it saw in the first and fits the buffer it left behind.
  ASSERT_GT(h.live_count(), 0u);
  std::vector<std::size_t> slots;
  for (std::size_t k = 0; k < 8 && k < h.live_count(); ++k) {
    slots.push_back(h.live_slot(rng.below(h.live_count())));
  }
  std::vector<BasicBitStream<Num>> fresh;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    fresh.push_back(random_leaf<Num>(rng));
  }
  const auto cycle = [&] {
    std::vector<BasicBitStream<Num>> originals;
    for (std::size_t k = 0; k < slots.size(); ++k) {
      originals.push_back(h.replace(slots[k], fresh[k]));
      h.aggregate_and_check("steady-state replace");
    }
    for (std::size_t k = slots.size(); k-- > 0;) {
      fresh[k] = h.replace(slots[k], std::move(originals[k]));
      h.aggregate_and_check("steady-state restore");
    }
  };
  cycle();  // warm-up
  if (::testing::Test::HasFatalFailure()) return;
  const std::size_t bytes = h.tree().held_bytes();
  const std::size_t rebuilds = h.tree().rebuilds();
  const std::size_t reuses = h.tree().reuses();
  cycle();
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(h.tree().held_bytes(), bytes);
  EXPECT_GT(h.tree().rebuilds(), rebuilds);
  EXPECT_EQ(h.tree().reuses() - reuses, h.tree().rebuilds() - rebuilds);
}

class MergeTreeSequence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

INSTANTIATE_TEST_SUITE_P(
    BudgetsAndSeeds, MergeTreeSequence,
    ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{2},
                                         std::size_t{8}),
                       ::testing::Range<std::uint64_t>(0, 4)));

TEST_P(MergeTreeSequence, Double) {
  run_random_sequence<double>(std::get<0>(GetParam()),
                              std::get<1>(GetParam()));
}

TEST_P(MergeTreeSequence, Rational) {
  run_random_sequence<Rational>(std::get<0>(GetParam()),
                                std::get<1>(GetParam()));
}

TEST(MergeTree, GrowRebuildsIntoTheOldNodeBuffers) {
  // Doubling keeps the old nodes' buffers where they sit: their bytes
  // stay counted across the grow, and the next flush rebuilds all 15
  // nodes of the doubled tree.
  Xorshift rng(5);
  BasicStreamMergeTree<double> tree;
  for (int k = 0; k < 8; ++k) (void)tree.insert(random_leaf<double>(rng));
  (void)tree.aggregate();
  ASSERT_EQ(tree.capacity(), 8u);
  const std::size_t bytes = tree.held_bytes();
  ASSERT_GT(bytes, 0u);
  const std::size_t rebuilds = tree.rebuilds();
  (void)tree.insert(random_leaf<double>(rng));  // the ninth leaf grows it
  ASSERT_EQ(tree.capacity(), 16u);
  EXPECT_EQ(tree.held_bytes(), bytes);
  (void)tree.aggregate();
  EXPECT_TRUE(tree.coherent());
  EXPECT_EQ(tree.rebuilds() - rebuilds, 15u);  // every node of 16 slots
  EXPECT_GE(tree.held_bytes(), bytes);
}

}  // namespace
}  // namespace rtcac
