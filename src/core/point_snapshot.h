// rtcac/core/point_snapshot.h
//
// The paper's per-queueing-point admission check (Section 4.3, Alg. 4.1)
// expressed once, over an abstract *view* of one out-port's derived
// streams — so the exact same arithmetic (and the exact same rejection
// strings) runs against two different backings:
//
//   * the live, dirty-tracked caches inside BasicSwitchCac (the serial /
//     exclusive-lock path), and
//   * an immutable, heap-shared export of those caches (BasicQueueSection
//     / BasicPointSections below) — the RCU-style snapshot the
//     concurrency layer (core/concurrent_cac.h) publishes per queueing
//     point so readers can run the check with zero shared_mutex traffic.
//
// A View provides, for one fixed out-port j:
//
//   cell(i, q)         S_ia(i,j,q)   — raw aggregate arrival of a cell
//   live_in_ports(q)   ascending in-ports i whose cell (i,j,q) has a member
//   filtered_at(q, k)  S_if(i,j,q)   = filter(S_ia), i = live_in_ports(q)[k]
//   hp_in_ports(q)     ascending in-ports i with a member at some r < q
//   hp_cell_at(q, k)   filter(mux_{r<q} S_ia(i,j,r)), i = hp_in_ports(q)[k]
//   offered(q)         S_oa(j,q)     = mux_i S_if(i,j,q)
//   hp_filtered(q)     S_of(j,q)
//   advertised(q)      Dmax(j,q)
//
// An in-port off live_in_ports(q) has a zero cell and filtered stream at
// q, and one off hp_in_ports(q) a zero higher-priority union.  A switch
// in RTnet (paper §5) has 19 in-ports and feeds each queue from a few, so
// the k-way merges over in-ports take their inputs from the two lists
// only: the kernels skip zero streams anyway, so they see the same
// non-zero inputs in the same (ascending) order and every sum stays
// bit-identical.
//
// check_point_view() composes the candidate's trial aggregates from those
// accessors exactly the way the pre-snapshot BasicSwitchCac::check did
// (the candidate's own cell is the only stream re-filtered; every other
// input is consumed as-is, and the trial stream takes its own in-port's
// place in the ascending list), so a snapshot whose sections equal the
// live caches yields a bitwise-identical CheckResult — the property the
// version-stamp protocol in concurrent_cac.h relies on.
//
// The check computes only the levels that gate its verdict, the window
// [priority, priorities): a candidate cannot change the bound of a level
// above its own, so those levels are neither computed nor read, and
// their CheckResult::bounds entries stay nullopt.  A lower level with no
// offered traffic has bound 0 whatever runs above it (Alg. 4.1 with no
// arrivals), so its trial higher-priority union is not built.
// BasicSwitchCac::check_from_scratch skips the same levels, so the two
// still return the same window.  The committed-set bound D'(j,q) lives
// on as SwitchCac::computed_bound (filled by prime_caches), not in the
// view.
//
// The check runs on the span kernels of core/stream_ops.h and
// core/delay_bound.h over per-thread scratch (core/stream_scratch.h):
// every trial stream lives in a scratch frame, never in a BitStream, so
// an admitted check on a primed view allocates only the returned bounds
// vector (pinned by tests/core/test_alloc_budget.cpp).  A View accessor
// may fill a cache lazily in the middle of the check, through the same
// kernels; it opens its own frame above the check's, so neither clobbers
// the other's buffers.
//
// This header holds plain data plus shared_ptr section handles only — no
// atomics, no locks; publication and reclamation of snapshots live
// entirely in core/concurrent_cac.* (lint rule `concurrency-state`).
// Reclamation is shared_ptr reference counting: a reader that pinned a
// snapshot keeps every section alive for the duration of its check, no
// matter how many newer snapshots are published meanwhile.

#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/bitstream.h"
#include "core/connection.h"
#include "core/delay_bound.h"
#include "core/stream_ops.h"

namespace rtcac {

/// Admission verdict for one switch, with the computed worst-case bounds
/// that justify it.  nullopt bounds mean "unbounded" (always a
/// rejection).
template <typename Num>
struct BasicSwitchCheckResult {
  bool admitted = false;
  /// Computed worst-case queueing delay D'(j,p) at the connection's own
  /// priority, including the candidate connection (cell times).
  std::optional<Num> bound_at_priority;
  /// Computed bounds D'(j,q) with the candidate included, indexed by
  /// priority q, for the levels that gate the verdict: q from the
  /// candidate's priority up to the first rejecting level (or the lowest
  /// priority, when admitted).  Every other entry is nullopt — the levels
  /// above the candidate's priority, which it cannot affect, are not
  /// computed, and none after a rejection.  A nullopt inside that window
  /// means "unbounded".
  std::vector<std::optional<Num>> bounds;
  /// Human-readable rejection reason; empty when admitted.
  std::string reason;
};

/// Immutable export of one queue's (out-port × priority) derived streams,
/// section-shared across snapshot generations: a republication after a
/// mutation at priority r rebuilds only the sections r and below it feeds
/// and re-links the untouched ones, so snapshot cost tracks the dirty
/// set, not the switch size.  The streams are handles on the live
/// caches' immutable blocks (core/bitstream.h): a rebuilt section copies
/// handles, not segments.
///
/// Only the in-ports on the queue's two live lists are exported, each
/// list with its streams in the same order (the View's filtered_at and
/// hp_cell_at); an in-port off a list holds the zero stream there, in
/// the live caches and so in the section.
template <typename Num>
struct BasicQueueSection {
  using Stream = BasicBitStream<Num>;
  std::vector<std::size_t> live_in_ports;  ///< in-ports with a member here
  std::vector<Stream> cells;               ///< their S_ia
  std::vector<Stream> filtered;            ///< their S_if
  std::vector<std::size_t> hp_in_ports;    ///< in-ports with one above
  std::vector<Stream> hp_cells;            ///< their higher-priority unions
  Stream offered;                          ///< S_oa
  Stream hp_filtered;                      ///< S_of
  Num advertised = Num(0);                 ///< Dmax
};

/// Immutable snapshot of one out-port: one shared section per priority.
template <typename Num>
struct BasicPointSections {
  std::size_t out_port = 0;  ///< for the canonical rejection string
  std::size_t in_ports = 0;
  std::vector<std::shared_ptr<const BasicQueueSection<Num>>> sections;

  /// View adapter over the sections, satisfying check_point_view's
  /// concept.
  class View {
   public:
    explicit View(const BasicPointSections& owner) : owner_(owner) {}
    /// In-port `in`'s S_ia at q: found by binary search on the live
    /// list, the zero stream for an in-port off it.
    [[nodiscard]] const BasicBitStream<Num>& cell(std::size_t in,
                                                  Priority q) const {
      static const BasicBitStream<Num> zero;
      const BasicQueueSection<Num>& s = *owner_.sections[q];
      const auto at =
          std::lower_bound(s.live_in_ports.begin(), s.live_in_ports.end(), in);
      if (at == s.live_in_ports.end() || *at != in) return zero;
      return s.cells[static_cast<std::size_t>(at - s.live_in_ports.begin())];
    }
    [[nodiscard]] const BasicBitStream<Num>& filtered_at(
        Priority q, std::size_t k) const {
      return owner_.sections[q]->filtered[k];
    }
    [[nodiscard]] const BasicBitStream<Num>& hp_cell_at(Priority q,
                                                        std::size_t k) const {
      return owner_.sections[q]->hp_cells[k];
    }
    [[nodiscard]] const BasicBitStream<Num>& offered(Priority q) const {
      return owner_.sections[q]->offered;
    }
    [[nodiscard]] const BasicBitStream<Num>& hp_filtered(Priority q) const {
      return owner_.sections[q]->hp_filtered;
    }
    [[nodiscard]] Num advertised(Priority q) const {
      return owner_.sections[q]->advertised;
    }
    [[nodiscard]] std::span<const std::size_t> live_in_ports(
        Priority q) const {
      return owner_.sections[q]->live_in_ports;
    }
    [[nodiscard]] std::span<const std::size_t> hp_in_ports(Priority q) const {
      return owner_.sections[q]->hp_in_ports;
    }

   private:
    const BasicPointSections& owner_;
  };

  [[nodiscard]] View view() const { return View(*this); }
};

/// The canonical rejection text of a per-point check: queue (out_port, q)
/// would see `bound` (nullopt = unbounded) against its advertised `dmax`.
/// Shared by check_point_view and BasicSwitchCac::check_from_scratch.
template <typename Num>
[[nodiscard]] std::string point_reject_reason(std::size_t out_port,
                                              Priority q,
                                              const std::optional<Num>& bound,
                                              const Num& dmax) {
  std::ostringstream os;
  os << "delay bound at out-port " << out_port << " priority " << q
     << " would be ";
  if (bound.has_value()) {
    os << *bound;
  } else {
    os << "unbounded";
  }
  os << " > advertised " << dmax;
  return os.str();
}

namespace detail {

/// Appends the inputs of one k-way merge over in-ports to `parts`: the
/// stream at(k) of the k-th in-port on the ascending list `ports`, for
/// every k, with the candidate's `trial` at `in_port`'s place (instead of
/// its own stream, when `in_port` is on the list).  Every in-port off the
/// list holds the zero stream, which the merge skips, so the merge sees
/// the inputs a pass over all in-ports would give it, in the same order.
template <typename Num, typename StreamAt>
void push_in_port_inputs(std::vector<SegmentSpan<Num>>& parts,
                         std::span<const std::size_t> ports,
                         std::size_t in_port, SegmentSpan<Num> trial,
                         const StreamAt& at) {
  std::size_t k = 0;
  for (; k < ports.size() && ports[k] < in_port; ++k) parts.push_back(at(k));
  parts.push_back(trial);
  if (k < ports.size() && ports[k] == in_port) ++k;
  for (; k < ports.size(); ++k) parts.push_back(at(k));
}

}  // namespace detail

/// The paper's CAC check for one candidate at one out-port, over any
/// View (live caches or immutable sections).  Steps 1-4 for the
/// candidate's own priority, Step 5 for every lower level; levels above
/// the candidate cannot be affected, keep their previously verified
/// bounds, and are skipped (see the header comment).
template <typename Num, typename View>
[[nodiscard]] BasicSwitchCheckResult<Num> check_point_view(
    const View& view, std::size_t priorities, std::size_t out_port,
    std::size_t in_port, Priority priority,
    const BasicBitStream<Num>& arrival) {
  using Frame = typename detail::StreamScratch<Num>::Frame;
  using Span = detail::SegmentSpan<Num>;
  BasicSwitchCheckResult<Num> result;
  result.bounds.assign(priorities, std::nullopt);

  // The candidate joins cell (in_port, priority) before the in-link
  // filter: S_ia + arrival is the trial cell every level at or below
  // `priority` composes from.
  Frame frame;
  const Span trial_cell_parts[] = {view.cell(in_port, priority).segments(),
                                   arrival.segments()};
  const Span trial_cell =
      detail::multiplex_all_segments<Num>(trial_cell_parts, frame.segments());

  for (Priority q = priority; q < priorities; ++q) {
    std::optional<Num> bound;
    if (q == priority) {
      // Candidate raises the offered load of its own queue; the traffic
      // above it is unchanged.  Every other live in-port contributes its
      // filtered stream untouched.
      Frame level;
      const Span trial =
          detail::filter_segments(trial_cell, Num(0), level.segments());
      std::vector<Span>& parts = level.spans();
      detail::push_in_port_inputs<Num>(
          parts, view.live_in_ports(q), in_port, trial,
          [&](std::size_t k) { return view.filtered_at(q, k).segments(); });
      const Span offered =
          detail::multiplex_all_segments<Num>(parts, level.segments());
      bound = detail::delay_bound_segments(offered,
                                           view.hp_filtered(q).segments());
    } else if (view.offered(q).is_zero()) {
      // Nothing queues at level q, so nothing waits there, whatever the
      // candidate adds above it (delay_bound_segments returns 0 for zero
      // arrivals without reading the service side).
      bound = Num(0);
    } else {
      // Candidate is higher-priority traffic for queue q; q's own
      // offered aggregate is unchanged.  Only in_port's higher-priority
      // union changes: rebuild it with the trial cell in place of its own
      // cell and reuse the unions of every other in-port.
      Frame level;
      std::vector<Span>& hp_parts = level.spans();
      for (Priority r = 0; r < q; ++r) {
        hp_parts.push_back(r == priority ? trial_cell
                                         : view.cell(in_port, r).segments());
      }
      const Span trial_union =
          detail::multiplex_all_segments<Num>(hp_parts, level.segments());
      const Span trial_hp =
          detail::filter_segments(trial_union, Num(0), level.segments());
      std::vector<Span>& parts = level.spans();
      detail::push_in_port_inputs<Num>(
          parts, view.hp_in_ports(q), in_port, trial_hp,
          [&](std::size_t k) { return view.hp_cell_at(q, k).segments(); });
      const Span hp_union =
          detail::multiplex_all_segments<Num>(parts, level.segments());
      const Span hp =
          detail::filter_segments(hp_union, Num(0), level.segments());
      bound = detail::delay_bound_segments(view.offered(q).segments(), hp);
    }
    result.bounds[q] = bound;
    if (q == priority) {
      result.bound_at_priority = bound;
    }
    const Num dmax = view.advertised(q);
    if (!bound.has_value() || *bound > dmax) {
      result.admitted = false;
      result.reason = point_reject_reason(out_port, q, bound, dmax);
      return result;
    }
  }
  result.admitted = true;
  return result;
}

}  // namespace rtcac
