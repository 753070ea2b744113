// rtcac/core/merge_tree.h
//
// Incrementally mergeable aggregates for the bit-stream algebra.
//
// The paper's CAC (Section 4) maintains, per queueing point, the
// multiplex of every admitted connection's arrival stream.  A flat fold
// makes connection removal O(n): the whole cell is re-multiplexed.  This
// structure makes add/remove O(log n) merges instead: an implicit binary
// merge tree whose leaves are the per-connection streams and whose every
// internal node caches the multiplex of its subtree.  Changing one leaf
// re-merges only the root path; the aggregate is read off the root.
//
// Two further mechanisms keep each merge cheap:
//
//   * Coalescing budget.  With budget B > 0 every internal node keeps at
//     most B segments by dropping interior breakpoints — never the first
//     or the last.  Dropping breakpoint k extends the previous (larger,
//     by monotonicity) rate over [t(k), t(k+1)), so the coalesced stream
//     dominates the exact one pointwise and the tail rate is preserved.
//     Admission decisions computed from it are therefore conservative:
//     the offered load is only ever over-estimated, delay bounds only
//     ever grow, rejects are a superset of the exact oracle's rejects
//     (property-tested in tests/core/test_coalesced_conservative.cpp).
//     Victims are chosen by smallest area error
//     (rate(k-1) - rate(k)) * (t(k+1) - t(k)), ties by index, so the
//     over-estimate stays small and selection is deterministic.
//
//   * In-place rebuilds.  A dirty node is re-merged into its own buffer:
//     cleared, refilled from its two children, its capacity kept.  Once
//     the buffer has room for the largest pair of children the node has
//     merged, a rebuild allocates nothing, so in exact mode steady-state
//     churn re-merges without touching the heap (coalescing also
//     allocates its victim ranking).  grow() keeps the old node buffers
//     where they sit for the rebuild of the doubled tree.
//
// With budget 0 (exact mode) nodes are exact multiplexes and the root
// equals the fold of the leaves up to floating-point association; for
// exact scalars (Rational) and for doubles whose rate sums are exact
// (dyadic rates — what the property tests and benches use) it equals the
// fold bitwise, because every pairwise sum goes through the k-way kernel
// detail::multiplex_union_canonical, whose sums and canonical rules are
// the fold's.
//
// The tree is a plain value type (copyable, no pointers out of the
// structure); it owns the leaf streams and its node buffers.

#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/bitstream.h"
#include "core/stream_ops.h"
#include "util/contract.h"

namespace rtcac {

/// Drops interior breakpoints of a canonical segment list until at most
/// `budget` remain, keeping the first and last segments and the original
/// rates of the kept ones — the admit-side-conservative rounding used by
/// the merge tree's coalescing mode.  No-op when budget is 0 or already
/// satisfied.  Requires budget >= 2 when non-zero (first and last cannot
/// be dropped).
template <typename Num>
void coalesce_conservative(std::vector<BasicSegment<Num>>& segments,
                           std::size_t budget) {
  if (budget == 0 || segments.size() <= budget) return;
  RTCAC_REQUIRE(budget >= 2,
                "coalesce_conservative: non-zero budget must be >= 2");
  // Rank interior breakpoints by the area over-estimate their removal
  // introduces; drop the cheapest until the budget holds.
  using Ranked = std::pair<Num, std::size_t>;
  std::vector<Ranked> ranked;
  ranked.reserve(segments.size() - 2);
  for (std::size_t k = 1; k + 1 < segments.size(); ++k) {
    const Num err = (segments[k - 1].rate - segments[k].rate) *
                    (segments[k + 1].start - segments[k].start);
    ranked.emplace_back(err, k);
  }
  const std::size_t drop = segments.size() - budget;
  std::nth_element(ranked.begin(),
                   ranked.begin() + static_cast<std::ptrdiff_t>(drop - 1),
                   ranked.end());
  std::vector<char> dropped(segments.size(), 0);
  for (std::size_t d = 0; d < drop; ++d) {
    dropped[ranked[d].second] = 1;
  }
  std::size_t kept = 0;
  for (std::size_t k = 0; k < segments.size(); ++k) {
    if (dropped[k]) continue;
    segments[kept++] = segments[k];
  }
  segments.resize(kept);
}

/// Balanced mergeable aggregate of bit streams: insert/erase a leaf in
/// O(log n) node re-merges, read the multiplex of all live leaves off
/// the root.  See the header comment for the exact/coalesced semantics.
template <typename Num>
class BasicStreamMergeTree {
 public:
  using Stream = BasicBitStream<Num>;
  using Segment = BasicSegment<Num>;

  /// `coalesce_budget` 0 = exact mode; otherwise the per-node segment
  /// cap (>= 2).
  explicit BasicStreamMergeTree(std::size_t coalesce_budget = 0)
      : budget_(coalesce_budget) {
    RTCAC_REQUIRE(budget_ == 0 || budget_ >= 2,
                  "StreamMergeTree: non-zero coalescing budget must be >= 2");
    reset_layout(1);
  }

  /// Adds a leaf stream; returns its slot (stable until erased, then
  /// recycled).  Grows the tree when full.  O(log n) merges amortized.
  [[nodiscard]] std::size_t insert(Stream leaf) {
    if (free_.empty()) grow();
    const std::size_t slot = free_.back();
    free_.pop_back();
    leaf_segments_ += leaf.size();
    leaves_[slot] = std::move(leaf);
    live_[slot] = 1;
    ++live_count_;
    mark_path_dirty(slot);
    note_peak();
    return slot;
  }

  /// Removes the leaf at `slot`; the slot becomes reusable.
  void erase(std::size_t slot) {
    RTCAC_REQUIRE(slot < capacity_ && live_[slot],
                  "StreamMergeTree: erase of a slot that is not live");
    leaf_segments_ -= leaves_[slot].size();
    leaves_[slot] = Stream{};
    live_[slot] = 0;
    --live_count_;
    free_.push_back(slot);
    mark_path_dirty(slot);
  }

  /// The multiplex of all live leaves.  Flushes pending re-merges
  /// (children before parents), then materializes the root.  The zero
  /// stream when the tree is empty.
  [[nodiscard]] Stream aggregate() {
    flush();
    return materialized();
  }

  /// The root aggregate without flushing — valid only when no re-merge
  /// is pending (i.e. after aggregate() ran for the latest mutation).
  /// Lets const audits re-derive what aggregate() returned.  In exact
  /// mode a lone live leaf is the aggregate: its handle is shared, not
  /// copied into a new block.
  [[nodiscard]] Stream materialized() const {
    RTCAC_REQUIRE(!any_dirty_,
                  "StreamMergeTree: materialized() with a flush pending");
    const std::span<const Segment> root = root_span();
    if (root.empty()) return Stream{};
    if (live_count_ == 1 && budget_ == 0) return leaves_[lone_live_slot()];
    if (capacity_ == 1 && budget_ != 0) {
      // Single-slot tree: the root is the raw leaf, which no internal
      // node has capped yet.
      std::vector<Segment> capped(root.begin(), root.end());
      coalesce_conservative(capped, budget_);
      return Stream::from_canonical(capped);
    }
    return Stream::from_canonical(root);
  }

  [[nodiscard]] const Stream& leaf(std::size_t slot) const {
    RTCAC_REQUIRE(slot < capacity_ && live_[slot],
                  "StreamMergeTree: leaf() of a slot that is not live");
    return leaves_[slot];
  }
  [[nodiscard]] bool leaf_live(std::size_t slot) const noexcept {
    return slot < capacity_ && live_[slot] != 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return live_count_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t coalesce_budget() const noexcept {
    return budget_;
  }

  /// Segments currently stored (leaves + internal nodes), and the
  /// high-water mark of that total — the bench's memory columns.
  [[nodiscard]] std::size_t held_segments() const noexcept {
    return leaf_segments_ + node_segments_;
  }
  [[nodiscard]] std::size_t peak_segments() const noexcept {
    return peak_segments_;
  }
  /// Bytes of segment storage held by node buffers (capacity, not size).
  [[nodiscard]] std::size_t held_bytes() const noexcept {
    return node_bytes_;
  }
  /// Node re-merges run so far, and how many of them fit the capacity
  /// the node's buffer already had (no heap allocation) — the bench's
  /// evidence that steady-state churn allocates no node buffer.
  [[nodiscard]] std::size_t rebuilds() const noexcept { return rebuilds_; }
  [[nodiscard]] std::size_t reuses() const noexcept { return reuses_; }

  /// Audit: re-derives every internal node from its children and
  /// compares bitwise; also re-checks the slot bookkeeping.  O(n).
  /// False if a flush is pending (mutators must aggregate() before the
  /// audit runs).
  [[nodiscard]] bool coherent() const {
    if (any_dirty_) return false;
    std::size_t live = 0;
    std::size_t leaf_segs = 0;
    for (std::size_t s = 0; s < capacity_; ++s) {
      if (live_[s]) {
        ++live;
        leaf_segs += leaves_[s].size();
      } else if (!leaves_[s].is_zero()) {
        return false;  // erased leaves must not retain traffic
      }
    }
    if (live != live_count_ || leaf_segs != leaf_segments_) return false;
    if (free_.size() != capacity_ - live_count_) return false;
    for (std::size_t i = capacity_; i-- > 1;) {
      std::vector<Segment> expect;
      merge_children(i, expect);
      if (!(expect == nodes_[i])) return false;
    }
    return true;
  }

 private:
  /// Heap layout: internal nodes are nodes_[1 .. capacity_-1]; the leaf
  /// at slot s sits at implicit index capacity_ + s.  A node's value is
  /// the canonical multiplex of its subtree's live leaves (capped at
  /// budget_), an empty buffer for an empty subtree.
  [[nodiscard]] std::span<const Segment> child_span(std::size_t idx) const {
    if (idx >= capacity_) {
      const std::size_t s = idx - capacity_;
      if (!live_[s]) return {};
      return leaves_[s].segments();
    }
    return nodes_[idx];
  }

  [[nodiscard]] std::span<const Segment> root_span() const {
    return capacity_ == 1 ? child_span(1) : std::span<const Segment>(nodes_[1]);
  }

  /// The slot of the only live leaf (requires live_count_ == 1): the root
  /// path is the one whose subtrees are non-empty.  O(log n).
  [[nodiscard]] std::size_t lone_live_slot() const {
    std::size_t i = 1;
    while (i < capacity_) i = child_span(2 * i).empty() ? 2 * i + 1 : 2 * i;
    return i - capacity_;
  }

  void mark_path_dirty(std::size_t slot) {
    any_dirty_ = true;
    for (std::size_t i = (capacity_ + slot) / 2; i >= 1; i /= 2) {
      dirty_[i] = 1;
    }
  }

  /// Computes node i's value from its children into `out` (assumed
  /// empty, and not a child's buffer).  Shared by the hot path (flush)
  /// and the audit (coherent).
  void merge_children(std::size_t i, std::vector<Segment>& out) const {
    const auto left = child_span(2 * i);
    const auto right = child_span(2 * i + 1);
    if (left.empty() && right.empty()) return;
    if (left.empty() || right.empty()) {
      const auto& only = left.empty() ? right : left;
      out.assign(only.begin(), only.end());
    } else {
      const detail::SegmentSpan<Num> children[] = {left, right};
      detail::multiplex_union_canonical<Num>(children, out);
    }
    coalesce_conservative(out, budget_);
  }

  /// Re-merges every dirty node, children before parents, each into its
  /// own buffer: the merge reads only the node's two children, so the
  /// node's old value can be cleared first and its capacity reused.
  void flush() {
    if (!any_dirty_) return;
    for (std::size_t i = capacity_; i-- > 1;) {
      if (!dirty_[i]) continue;
      dirty_[i] = 0;
      std::vector<Segment>& node = nodes_[i];
      const std::size_t old_size = node.size();
      const std::size_t old_capacity = node.capacity();
      node.clear();
      node.reserve(child_span(2 * i).size() + child_span(2 * i + 1).size());
      merge_children(i, node);
      ++rebuilds_;
      if (node.capacity() == old_capacity) ++reuses_;
      node_segments_ = node_segments_ - old_size + node.size();
      node_bytes_ += (node.capacity() - old_capacity) * sizeof(Segment);
    }
    any_dirty_ = false;
    note_peak();
  }

  /// Doubles the slot count.  Leaf positions keep their slots; every
  /// internal node is rebuilt on the next flush (amortized O(1) per
  /// insert, as with any doubling scheme), the old nodes' buffers reused
  /// where they sit.
  void grow() {
    reset_layout(capacity_ * 2);
    dirty_.assign(capacity_, 1);
    any_dirty_ = true;
  }

  void reset_layout(std::size_t capacity) {
    capacity_ = capacity;
    leaves_.resize(capacity_);
    live_.resize(capacity_, 0);
    nodes_.resize(capacity_);
    dirty_.assign(capacity_, 0);
    free_.clear();
    for (std::size_t s = capacity_; s-- > 0;) {
      if (!live_[s]) free_.push_back(s);
    }
  }

  void note_peak() {
    peak_segments_ = std::max(peak_segments_, held_segments());
  }

  std::size_t budget_ = 0;
  std::size_t capacity_ = 0;
  std::size_t live_count_ = 0;
  std::vector<Stream> leaves_;
  std::vector<char> live_;
  std::vector<std::vector<Segment>> nodes_;  // nodes_[0] unused
  std::vector<char> dirty_;     // dirty_[0] unused
  std::vector<std::size_t> free_;
  bool any_dirty_ = false;
  std::size_t leaf_segments_ = 0;
  std::size_t node_segments_ = 0;
  std::size_t node_bytes_ = 0;
  std::size_t peak_segments_ = 0;
  std::size_t rebuilds_ = 0;
  std::size_t reuses_ = 0;
};

using StreamMergeTree = BasicStreamMergeTree<double>;
using ExactStreamMergeTree = BasicStreamMergeTree<Rational>;

}  // namespace rtcac
