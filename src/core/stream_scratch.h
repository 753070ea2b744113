// rtcac/core/stream_scratch.h
//
// Per-thread scratch storage for the span kernels of the stream algebra
// (core/stream_ops.h, core/delay_bound.h) and the per-point check built
// on them (core/point_snapshot.h).
//
// The paper's per-queueing-point check composes a handful of
// intermediate streams per priority level — the candidate's trial cell,
// its filtered form, the k-way aggregates, the service curve of
// Alg. 4.1 — and throws every one of them away once the bound is known.
// Building each as a BitStream would cost a heap allocation apiece.
// The kernels instead write raw segments into buffers borrowed from
// here, which keep their capacity from call to call, so a warmed thread
// runs the whole check without touching the heap.
//
// Ownership rules (docs/PERFORMANCE.md §3):
//
//   * One StreamScratch per thread and scalar type (`thread_local`), never
//     a member of a shared object: ConcurrentCac runs checks on several
//     threads at once, each on its own scratch.
//   * Frame buffers (segments(), spans()) are lent for the lifetime of a
//     Frame and returned, in LIFO order, when it ends.  A frame opened
//     while another is live gets fresh buffers above it, so a kernel may
//     call out to code that itself runs kernels — the live check's view
//     fills its caches lazily, in the middle of a check — without either
//     clobbering the other.  Buffers live in a deque, so lending a new
//     one never moves an old one.
//   * The leaf buffers (merge_cursors, service_curve) belong to
//     one kernel call that calls out to nothing: no view accessor, no
//     other kernel.  Those calls cannot nest, so one set per thread
//     suffices.  Each kernel clears what it uses on entry.
//   * Nothing here is ever the storage of a BitStream.  A caller that
//     keeps a kernel's result copies it into a new stream block
//     (BitStream::from_canonical), unless the result is one of the
//     kernel's inputs, whose stream it then shares.

#pragma once

#include <cstddef>
#include <deque>
#include <span>
#include <vector>

#include "core/bitstream.h"

namespace rtcac::detail {

/// One breakpoint of the service curve G(u) = ∫₀ᵘ (1 - r1) of Alg. 4.1
/// (core/delay_bound.h): G has slope `capacity` on [start, next start)
/// and G(start) = `value`.
template <typename Num>
struct ServicePoint {
  Num start{};
  Num capacity{};
  Num value{};
};

/// One input of the k-way merge (core/stream_ops.h): the segment in
/// force at the merge's current breakpoint and the input's last segment.
template <typename Num>
struct MergeCursor {
  const BasicSegment<Num>* at = nullptr;
  const BasicSegment<Num>* last = nullptr;
};

template <typename Num>
class StreamScratch {
 public:
  using Segment = BasicSegment<Num>;
  using SegmentSpan = std::span<const Segment>;

  /// The calling thread's scratch.
  [[nodiscard]] static StreamScratch& local() {
    thread_local StreamScratch scratch;
    return scratch;
  }

  /// Lends cleared buffers until it is destroyed; see the header comment.
  class Frame {
   public:
    Frame()
        : scratch_(local()),
          segments_mark_(scratch_.segments_lent_),
          spans_mark_(scratch_.spans_lent_) {}
    ~Frame() {
      scratch_.segments_lent_ = segments_mark_;
      scratch_.spans_lent_ = spans_mark_;
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

    /// An empty segment buffer, this frame's until it ends.
    [[nodiscard]] std::vector<Segment>& segments() {
      return lend(scratch_.segments_, scratch_.segments_lent_);
    }
    /// An empty list of segment spans, this frame's until it ends.
    [[nodiscard]] std::vector<SegmentSpan>& spans() {
      return lend(scratch_.spans_, scratch_.spans_lent_);
    }

   private:
    template <typename Buffer>
    static Buffer& lend(std::deque<Buffer>& pool, std::size_t& lent) {
      if (lent == pool.size()) pool.emplace_back();
      Buffer& buffer = pool[lent++];
      buffer.clear();
      return buffer;
    }

    StreamScratch& scratch_;
    std::size_t segments_mark_;
    std::size_t spans_mark_;
  };

  // Leaf buffer of the k-way merge (stream_ops.h).
  std::vector<MergeCursor<Num>> merge_cursors;
  // Leaf buffer of the delay bound (delay_bound.h).
  std::vector<ServicePoint<Num>> service_curve;

 private:
  StreamScratch() = default;

  std::deque<std::vector<Segment>> segments_;
  std::size_t segments_lent_ = 0;
  std::deque<std::vector<SegmentSpan>> spans_;
  std::size_t spans_lent_ = 0;
};

}  // namespace rtcac::detail
