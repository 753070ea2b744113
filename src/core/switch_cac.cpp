#include "core/switch_cac.h"

#include <algorithm>
#include <stdexcept>

namespace rtcac {

template <typename Num>
BasicSwitchCac<Num>::BasicSwitchCac(const Config& config) : config_(config) {
  RTCAC_REQUIRE(config_.in_ports > 0 && config_.out_ports > 0 &&
                    config_.priorities > 0,
                "SwitchCac: ports and priorities must be positive");
  RTCAC_REQUIRE(config_.advertised_bound > Num(0),
                "SwitchCac: advertised bound must be > 0");
  RTCAC_REQUIRE(config_.coalesce_budget == 0 || config_.coalesce_budget >= 2,
                "SwitchCac: non-zero coalescing budget must be >= 2");
  advertised_.assign(config_.out_ports * config_.priorities,
                     config_.advertised_bound);
  const std::size_t cells =
      config_.in_ports * config_.out_ports * config_.priorities;
  const std::size_t queues = config_.out_ports * config_.priorities;
  arrival_aggr_.assign(cells, Stream{});
  cell_trees_.assign(cells,
                     BasicStreamMergeTree<Num>(config_.coalesce_budget));
  cell_counts_.assign(cells, 0);
  cell_members_.assign(cells, {});
  live_in_ports_.assign(queues, {});
  hp_in_ports_.assign(queues, {});
  filtered_cell_.assign(cells, Stream{});
  hp_cell_filtered_.assign(cells, Stream{});
  offered_cache_.assign(queues, Stream{});
  hp_filtered_cache_.assign(queues, Stream{});
  bound_cache_.assign(queues, std::nullopt);
  // Every cell is empty, so its derived streams are the zero streams they
  // hold: clean, as update_in_port_lists() leaves an emptied cell's.  The
  // per-queue entries start dirty; the ensure_* accessors fill them on
  // first use, so a fresh switch never pays for caches it does not read.
  filtered_cell_dirty_.assign(cells, 0);
  hp_cell_dirty_.assign(cells, 0);
  offered_dirty_.assign(queues, 1);
  hp_filtered_dirty_.assign(queues, 1);
  bound_dirty_.assign(queues, 1);
}

template <typename Num>
std::size_t BasicSwitchCac<Num>::cell_index(std::size_t in_port,
                                            std::size_t out_port,
                                            Priority priority) const {
  return (in_port * config_.out_ports + out_port) * config_.priorities +
         priority;
}

template <typename Num>
std::size_t BasicSwitchCac<Num>::queue_index(std::size_t out_port,
                                             Priority priority) const {
  return out_port * config_.priorities + priority;
}

template <typename Num>
void BasicSwitchCac<Num>::check_ports(std::size_t in_port,
                                      std::size_t out_port,
                                      Priority priority) const {
  RTCAC_REQUIRE(in_port < config_.in_ports && out_port < config_.out_ports &&
                    priority < config_.priorities,
                "SwitchCac: port or priority out of range");
}

template <typename Num>
Num BasicSwitchCac<Num>::advertised(std::size_t out_port,
                                    Priority priority) const {
  check_ports(0, out_port, priority);
  return advertised_[queue_index(out_port, priority)];
}

template <typename Num>
void BasicSwitchCac<Num>::set_advertised(std::size_t out_port,
                                         Priority priority, Num bound) {
  check_ports(0, out_port, priority);
  RTCAC_REQUIRE(bound > Num(0), "SwitchCac: advertised bound must be > 0");
  advertised_[queue_index(out_port, priority)] = bound;
}

template <typename Num>
typename BasicSwitchCac<Num>::Stream BasicSwitchCac<Num>::rebuild_cell(
    std::size_t in_port, std::size_t out_port, Priority priority) const {
  const std::size_t idx = cell_index(in_port, out_port, priority);
  const std::vector<ConnectionId>& members = cell_members_[idx];
  std::vector<const Stream*> parts;
  parts.reserve(members.size());
  for (const ConnectionId id : members) {
    const auto it = records_.find(id);
    RTCAC_ASSERT(it != records_.end(),
                 "SwitchCac: membership index references unknown id " +
                     std::to_string(id));
    parts.push_back(&cell_trees_[idx].leaf(it->second.slot));
  }
  // Members are kept in insertion order, so this k-way mux reproduces the
  // pre-merge-tree incremental adds bitwise: the exact fold the scratch
  // oracle and the audits compare against, independent of the (possibly
  // coalesced) cached aggregate.
  return multiplex_all(parts);
}

template <typename Num>
void BasicSwitchCac<Num>::invalidate_cell(std::size_t in_port,
                                          std::size_t out_port,
                                          Priority priority) {
  // The cell feeds its own filtered stream, the offered aggregate and
  // bound of its queue, and — being higher-priority traffic for every
  // level below — the hp union of cells (in_port, out_port, q > priority)
  // plus the hp aggregates and bounds of those queues.  Nothing else.
  filtered_cell_dirty_[cell_index(in_port, out_port, priority)] = 1;
  offered_dirty_[queue_index(out_port, priority)] = 1;
  bound_dirty_[queue_index(out_port, priority)] = 1;
  for (Priority q = priority + 1; q < config_.priorities; ++q) {
    hp_cell_dirty_[cell_index(in_port, out_port, q)] = 1;
    hp_filtered_dirty_[queue_index(out_port, q)] = 1;
    bound_dirty_[queue_index(out_port, q)] = 1;
  }
}

namespace {

/// Puts `in_port` on the ascending list `ports` or takes it off.
void set_listed(std::vector<std::size_t>& ports, std::size_t in_port,
                bool listed) {
  const auto at = std::lower_bound(ports.begin(), ports.end(), in_port);
  const bool present = at != ports.end() && *at == in_port;
  if (listed && !present) {
    ports.insert(at, in_port);
  } else if (!listed && present) {
    ports.erase(at);
  }
}

}  // namespace

template <typename Num>
void BasicSwitchCac<Num>::update_in_port_lists(std::size_t in_port,
                                               std::size_t out_port,
                                               Priority priority) {
  // Runs after invalidate_cell(in_port, out_port, priority), so its
  // resets stand.  The batched mutators visit their cells in ascending
  // index order: a later cell at this in-port and out-port has a larger
  // priority, and its invalidation re-dirties only entries below it,
  // which stay at zero only if that cell emptied too, and then its own
  // update resets them again.
  const std::size_t c = cell_index(in_port, out_port, priority);
  const bool live = cell_counts_[c] > 0;
  set_listed(live_in_ports_[queue_index(out_port, priority)], in_port, live);
  if (!live) {
    filtered_cell_[c] = Stream{};
    filtered_cell_dirty_[c] = 0;
  }
  bool above = false;  // a member at some level < q on this in-port
  for (Priority r = 0; r < priority; ++r) {
    above = above || cell_counts_[cell_index(in_port, out_port, r)] > 0;
  }
  for (Priority q = priority + 1; q < config_.priorities; ++q) {
    above = above || cell_counts_[cell_index(in_port, out_port, q - 1)] > 0;
    set_listed(hp_in_ports_[queue_index(out_port, q)], in_port, above);
    if (!above) {
      const std::size_t hc = cell_index(in_port, out_port, q);
      hp_cell_filtered_[hc] = Stream{};
      hp_cell_dirty_[hc] = 0;
    }
  }
}

// The ensure_* fills compute in a scratch frame of their own
// (core/stream_scratch.h) — they may run in the middle of a check, whose
// frame lies below — and keep only the final stream: an input the
// kernels returned unchanged (a link-feasible cell's filter, a merge with
// one non-zero input) by sharing its handle, anything else copied out at
// exact size.

namespace {

/// The stream a fill keeps for kernel result `result`, given its n input
/// streams input(0..n-1): the input's own handle when `result` is that
/// input's span, else a new block.
template <typename Num, typename Input>
BasicBitStream<Num> keep_result(detail::SegmentSpan<Num> result,
                                std::size_t n, const Input& input) {
  for (std::size_t i = 0; i < n; ++i) {
    const BasicBitStream<Num>& s = input(i);
    if (s.segments().data() == result.data() && s.size() == result.size()) {
      return s;
    }
  }
  return BasicBitStream<Num>::from_canonical(result);
}

}  // namespace

template <typename Num>
const typename BasicSwitchCac<Num>::Stream&
BasicSwitchCac<Num>::ensure_filtered_cell(std::size_t in_port,
                                          std::size_t out_port,
                                          Priority priority) const {
  const std::size_t c = cell_index(in_port, out_port, priority);
  if (filtered_cell_dirty_[c] != 0) {
    typename detail::StreamScratch<Num>::Frame frame;
    filtered_cell_[c] = keep_result<Num>(
        detail::filter_segments(arrival_aggr_[c].segments(), Num(0),
                                frame.segments()),
        1, [&](std::size_t) -> const Stream& { return arrival_aggr_[c]; });
    filtered_cell_dirty_[c] = 0;
  }
  return filtered_cell_[c];
}

template <typename Num>
const typename BasicSwitchCac<Num>::Stream&
BasicSwitchCac<Num>::ensure_hp_cell(std::size_t in_port, std::size_t out_port,
                                    Priority priority) const {
  const std::size_t c = cell_index(in_port, out_port, priority);
  // Never dirty at priority 0: no level lies above it, so its union stays
  // the zero stream the constructor put there.
  if (hp_cell_dirty_[c] != 0) {
    typename detail::StreamScratch<Num>::Frame frame;
    const auto cell = [&](std::size_t q) -> const Stream& {
      return arrival_aggr_[cell_index(in_port, out_port,
                                      static_cast<Priority>(q))];
    };
    std::vector<detail::SegmentSpan<Num>>& parts = frame.spans();
    for (Priority q = 0; q < priority; ++q) {
      parts.push_back(cell(q).segments());
    }
    const detail::SegmentSpan<Num> hp_union =
        detail::multiplex_all_segments<Num>(parts, frame.segments());
    hp_cell_filtered_[c] = keep_result<Num>(
        detail::filter_segments(hp_union, Num(0), frame.segments()),
        priority, cell);
    hp_cell_dirty_[c] = 0;
  }
  return hp_cell_filtered_[c];
}

template <typename Num>
const typename BasicSwitchCac<Num>::Stream&
BasicSwitchCac<Num>::ensure_offered(std::size_t out_port,
                                    Priority priority) const {
  const std::size_t q = queue_index(out_port, priority);
  if (offered_dirty_[q] != 0) {
    typename detail::StreamScratch<Num>::Frame frame;
    std::vector<detail::SegmentSpan<Num>>& parts = frame.spans();
    const std::vector<std::size_t>& live = live_in_ports_[q];
    for (const std::size_t i : live) {
      parts.push_back(ensure_filtered_cell(i, out_port, priority).segments());
    }
    offered_cache_[q] = keep_result<Num>(
        detail::multiplex_all_segments<Num>(parts, frame.segments()),
        live.size(), [&](std::size_t k) -> const Stream& {
          return filtered_cell_[cell_index(live[k], out_port, priority)];
        });
    offered_dirty_[q] = 0;
  }
  return offered_cache_[q];
}

template <typename Num>
const typename BasicSwitchCac<Num>::Stream&
BasicSwitchCac<Num>::ensure_hp_filtered(std::size_t out_port,
                                        Priority priority) const {
  const std::size_t q = queue_index(out_port, priority);
  if (hp_filtered_dirty_[q] != 0) {
    typename detail::StreamScratch<Num>::Frame frame;
    std::vector<detail::SegmentSpan<Num>>& parts = frame.spans();
    const std::vector<std::size_t>& above = hp_in_ports_[q];
    for (const std::size_t i : above) {
      parts.push_back(ensure_hp_cell(i, out_port, priority).segments());
    }
    // The higher-priority traffic leaves through the same unit-rate
    // out-link, so it can occupy at most rate 1 of it.
    const detail::SegmentSpan<Num> hp_union =
        detail::multiplex_all_segments<Num>(parts, frame.segments());
    hp_filtered_cache_[q] = keep_result<Num>(
        detail::filter_segments(hp_union, Num(0), frame.segments()),
        above.size(), [&](std::size_t k) -> const Stream& {
          return hp_cell_filtered_[cell_index(above[k], out_port, priority)];
        });
    hp_filtered_dirty_[q] = 0;
  }
  return hp_filtered_cache_[q];
}

template <typename Num>
const std::optional<Num>& BasicSwitchCac<Num>::ensure_bound(
    std::size_t out_port, Priority priority) const {
  const std::size_t q = queue_index(out_port, priority);
  if (bound_dirty_[q] != 0) {
    const Stream& offered = ensure_offered(out_port, priority);
    if (offered.is_zero()) {
      bound_cache_[q] = Num(0);
    } else {
      bound_cache_[q] =
          delay_bound(offered, ensure_hp_filtered(out_port, priority));
    }
    bound_dirty_[q] = 0;
  }
  return bound_cache_[q];
}

/// Live-cache view for check_point_view (core/point_snapshot.h): every
/// accessor forwards to the dirty-tracked caches and the live in-port
/// lists of one out-port.  The caches fill lazily on first use, so a
/// check on an unprimed switch still works — and on a *primed* switch
/// (the concurrency layer's invariant) every accessor is a pure read.
template <typename Num>
struct BasicSwitchCac<Num>::CheckView {
  const BasicSwitchCac& cac;
  std::size_t out_port;

  [[nodiscard]] const Stream& cell(std::size_t in, Priority q) const {
    return cac.arrival_aggr_[cac.cell_index(in, out_port, q)];
  }
  [[nodiscard]] const Stream& filtered_at(Priority q, std::size_t k) const {
    return cac.ensure_filtered_cell(
        cac.live_in_ports_[cac.queue_index(out_port, q)][k], out_port, q);
  }
  [[nodiscard]] const Stream& hp_cell_at(Priority q, std::size_t k) const {
    return cac.ensure_hp_cell(cac.hp_in_ports_[cac.queue_index(out_port, q)][k],
                              out_port, q);
  }
  [[nodiscard]] const Stream& offered(Priority q) const {
    return cac.ensure_offered(out_port, q);
  }
  [[nodiscard]] const Stream& hp_filtered(Priority q) const {
    return cac.ensure_hp_filtered(out_port, q);
  }
  [[nodiscard]] Num advertised(Priority q) const {
    return cac.advertised_[cac.queue_index(out_port, q)];
  }
  [[nodiscard]] std::span<const std::size_t> live_in_ports(Priority q) const {
    return cac.live_in_ports_[cac.queue_index(out_port, q)];
  }
  [[nodiscard]] std::span<const std::size_t> hp_in_ports(Priority q) const {
    return cac.hp_in_ports_[cac.queue_index(out_port, q)];
  }
};

template <typename Num>
typename BasicSwitchCac<Num>::Stream
BasicSwitchCac<Num>::offered_aggregate_scratch(std::size_t out_port,
                                               Priority priority,
                                               const Stream& extra,
                                               std::size_t extra_in,
                                               Priority extra_prio) const {
  Stream offered;
  for (std::size_t i = 0; i < config_.in_ports; ++i) {
    // Exact fold from the records — never the cached aggregate, which in
    // coalescing mode only dominates the true cell stream.
    Stream cell = rebuild_cell(i, out_port, priority);
    if (i == extra_in && priority == extra_prio) {
      cell = multiplex(cell, extra);
    }
    if (cell.is_zero()) continue;
    offered = multiplex(offered, filter(cell));
  }
  return offered;
}

template <typename Num>
typename BasicSwitchCac<Num>::Stream
BasicSwitchCac<Num>::higher_priority_filtered_scratch(
    std::size_t out_port, Priority priority, const Stream& extra,
    std::size_t extra_in, Priority extra_prio) const {
  Stream out_aggr;
  for (std::size_t i = 0; i < config_.in_ports; ++i) {
    // Aggregate all strictly-higher priorities on this incoming link: they
    // share the link, so one filter pass applies to their union.  Cells
    // are re-folded from the records (see offered_aggregate_scratch).
    Stream hp;
    for (Priority q = 0; q < priority; ++q) {
      Stream cell = rebuild_cell(i, out_port, q);
      if (i == extra_in && q == extra_prio) {
        cell = multiplex(cell, extra);
      }
      if (cell.is_zero()) continue;
      hp = multiplex(hp, cell);
    }
    if (hp.is_zero()) continue;
    out_aggr = multiplex(out_aggr, filter(hp));
  }
  // The higher-priority traffic leaves through the same unit-rate out-link,
  // so it can occupy at most rate 1 of it.
  return filter(out_aggr);
}

template <typename Num>
typename BasicSwitchCac<Num>::CheckResult BasicSwitchCac<Num>::check(
    std::size_t in_port, std::size_t out_port, Priority priority,
    const Stream& arrival) const {
  check_ports(in_port, out_port, priority);
  // The shared per-point algorithm (core/point_snapshot.h) over the
  // live caches: every stream the candidate does not touch comes from
  // the dirty-tracked caches; only the candidate's own cell is
  // re-filtered.  The exported-snapshot path runs the same template
  // over BasicPointSections, so the two stay decision- and
  // string-identical by construction.
  return check_point_view<Num>(CheckView{*this, out_port},
                               config_.priorities, out_port, in_port,
                               priority, arrival);
}

template <typename Num>
typename BasicSwitchCac<Num>::CheckResult
BasicSwitchCac<Num>::check_from_scratch(std::size_t in_port,
                                        std::size_t out_port,
                                        Priority priority,
                                        const Stream& arrival) const {
  check_ports(in_port, out_port, priority);
  CheckResult result;
  result.bounds.assign(config_.priorities, std::nullopt);

  // Frozen pre-optimization path: every aggregate re-folded with two-way
  // multiplex, every bound from the reference candidate scan, no caches.
  // Like check_point_view it computes only the verdict's levels, from the
  // candidate's priority down (core/point_snapshot.h).
  for (Priority q = priority; q < config_.priorities; ++q) {
    const Stream offered =
        offered_aggregate_scratch(out_port, q, arrival, in_port, priority);
    const Stream hp = higher_priority_filtered_scratch(out_port, q, arrival,
                                                       in_port, priority);
    const std::optional<Num> bound = delay_bound_reference(offered, hp);
    result.bounds[q] = bound;
    if (q == priority) {
      result.bound_at_priority = bound;
    }
    const Num dmax = advertised_[queue_index(out_port, q)];
    if (!bound.has_value() || *bound > dmax) {
      result.admitted = false;
      result.reason = point_reject_reason(out_port, q, bound, dmax);
      return result;
    }
  }
  result.admitted = true;
  return result;
}

template <typename Num>
void BasicSwitchCac<Num>::add(ConnectionId id, std::size_t in_port,
                              std::size_t out_port, Priority priority,
                              const Stream& arrival, double lease_expiry) {
  check_ports(in_port, out_port, priority);
  RTCAC_REQUIRE(!records_.contains(id),
                "SwitchCac: duplicate connection id " + std::to_string(id));
  const std::size_t idx = cell_index(in_port, out_port, priority);
  const std::size_t slot = cell_trees_[idx].insert(stream_arena_, arrival);
  records_.emplace(id,
                   Record{in_port, out_port, priority, slot, lease_expiry});
  if (lease_expiry != kPermanentLease) lease_index_.emplace(lease_expiry, id);
  arrival_aggr_[idx] = cell_trees_[idx].aggregate(stream_arena_);
  ++cell_counts_[idx];
  cell_members_[idx].push_back(id);
  invalidate_cell(in_port, out_port, priority);
  if (cell_counts_[idx] == 1) update_in_port_lists(in_port, out_port, priority);
  audit_invariants();
}

template <typename Num>
void BasicSwitchCac<Num>::rekey(ConnectionId from, ConnectionId to,
                                std::size_t in_port, std::size_t out_port,
                                Priority priority, double lease_expiry) {
  const auto it = records_.find(from);
  RTCAC_REQUIRE(it != records_.end(),
                "SwitchCac: rekey of unknown id " + std::to_string(from));
  RTCAC_REQUIRE(!records_.contains(to),
                "SwitchCac: duplicate connection id " + std::to_string(to));
  Record& rec = it->second;
  RTCAC_REQUIRE(rec.in_port == in_port && rec.out_port == out_port &&
                    rec.priority == priority,
                "SwitchCac: rekey of id " + std::to_string(from) +
                    " onto other ports or another priority");
  drop_lease_index_entry(rec.lease_expiry, from);
  rec.lease_expiry = lease_expiry;
  if (lease_expiry != kPermanentLease) lease_index_.emplace(lease_expiry, to);
  // Erase, then append: the position remove() + add() would give the id,
  // so rebuild_cell() folds the members in the same order.
  std::vector<ConnectionId>& members =
      cell_members_[cell_index(in_port, out_port, priority)];
  members.erase(std::find(members.begin(), members.end(), from));
  members.push_back(to);
  // Re-key the record node in place: no allocation, slot unchanged.
  auto node = records_.extract(it);
  node.key() = to;
  records_.insert(std::move(node));
  audit_invariants();
}

template <typename Num>
bool BasicSwitchCac<Num>::renew_lease(ConnectionId id, double lease_expiry) {
  const auto it = records_.find(id);
  if (it == records_.end()) return false;
  drop_lease_index_entry(it->second.lease_expiry, id);
  it->second.lease_expiry = lease_expiry;
  if (lease_expiry != kPermanentLease) lease_index_.emplace(lease_expiry, id);
  return true;
}

template <typename Num>
void BasicSwitchCac<Num>::drop_lease_index_entry(double expiry,
                                                 ConnectionId id) {
  if (expiry == kPermanentLease) return;
  const auto [first, last] = lease_index_.equal_range(expiry);
  for (auto it = first; it != last; ++it) {
    if (it->second == id) {
      lease_index_.erase(it);
      return;
    }
  }
  RTCAC_ASSERT(false, "SwitchCac: finite lease missing from the lease index");
}

template <typename Num>
bool BasicSwitchCac<Num>::make_permanent(ConnectionId id) {
  return renew_lease(id, kPermanentLease);
}

template <typename Num>
double BasicSwitchCac<Num>::lease_expiry(ConnectionId id) const {
  const auto it = records_.find(id);
  RTCAC_REQUIRE(it != records_.end(),
                "SwitchCac: lease_expiry of unknown id " + std::to_string(id));
  return it->second.lease_expiry;
}

template <typename Num>
std::size_t BasicSwitchCac<Num>::remove_record_bookkeeping(
    typename RecordMap::iterator it) {
  const Record& rec = it->second;
  const std::size_t idx = cell_index(rec.in_port, rec.out_port, rec.priority);
  cell_trees_[idx].erase(rec.slot);
  drop_lease_index_entry(rec.lease_expiry, it->first);
  std::erase(cell_members_[idx], it->first);
  --cell_counts_[idx];
  records_.erase(it);
  return idx;
}

template <typename Num>
std::vector<ConnectionId> BasicSwitchCac<Num>::reclaim(double now) {
  // Walk the expired prefix of the lease index — O(expired log n), never
  // a scan of the full record map.
  std::vector<ConnectionId> expired;
  for (auto it = lease_index_.begin();
       it != lease_index_.end() && it->first <= now; ++it) {
    expired.push_back(it->second);
  }
  if (expired.empty()) return expired;
  std::sort(expired.begin(), expired.end());  // contract: ascending ids
  // Batch: strip every expired record first, then rebuild each touched
  // cell exactly once — a cell losing k orphans pays one rebuild, not k.
  std::vector<std::size_t> touched;
  touched.reserve(expired.size());
  for (const ConnectionId id : expired) {
    touched.push_back(remove_record_bookkeeping(records_.find(id)));
  }
  rebuild_cells(touched);
  audit_invariants();
  return expired;
}

template <typename Num>
std::size_t BasicSwitchCac<Num>::remove_many(
    std::span<const ConnectionId> ids) {
  std::vector<std::size_t> touched;
  touched.reserve(ids.size());
  for (const ConnectionId id : ids) {
    const auto it = records_.find(id);
    if (it == records_.end()) continue;
    touched.push_back(remove_record_bookkeeping(it));
  }
  if (touched.empty()) return 0;
  const std::size_t removed = touched.size();
  rebuild_cells(touched);
  audit_invariants();
  return removed;
}

template <typename Num>
void BasicSwitchCac<Num>::rebuild_cells(std::vector<std::size_t>& touched) {
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  const std::size_t per_in = config_.out_ports * config_.priorities;
  for (const std::size_t idx : touched) {
    const std::size_t in_port = idx / per_in;
    const std::size_t out_port = (idx % per_in) / config_.priorities;
    const auto priority = static_cast<Priority>(idx % config_.priorities);
    // One flush per touched cell: a cell losing k members re-merges each
    // dirty tree node once, the same incremental path remove() takes —
    // not k times, and never a full refold.
    arrival_aggr_[idx] = cell_trees_[idx].aggregate(stream_arena_);
    invalidate_cell(in_port, out_port, priority);
    if (cell_counts_[idx] == 0) {
      update_in_port_lists(in_port, out_port, priority);
    }
  }
}

template <typename Num>
std::vector<ConnectionId> BasicSwitchCac<Num>::connection_ids() const {
  std::vector<ConnectionId> ids;
  ids.reserve(records_.size());
  for (const auto& [id, rec] : records_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

template <typename Num>
std::vector<ConnectionId> BasicSwitchCac<Num>::connection_ids(
    std::size_t out_port, Priority priority) const {
  check_ports(0, out_port, priority);
  std::vector<ConnectionId> ids;
  for (std::size_t i = 0; i < config_.in_ports; ++i) {
    const auto& members = cell_members_[cell_index(i, out_port, priority)];
    ids.insert(ids.end(), members.begin(), members.end());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

template <typename Num>
bool BasicSwitchCac<Num>::remove(ConnectionId id) {
  const auto it = records_.find(id);
  if (it == records_.end()) return false;
  const std::size_t in_port = it->second.in_port;
  const std::size_t out_port = it->second.out_port;
  const Priority priority = it->second.priority;
  const std::size_t idx = remove_record_bookkeeping(it);
  // Re-merge the erased leaf's root path rather than demultiplex: the
  // remaining leaves are recombined from their exact streams, so repeated
  // setup/teardown cannot accumulate floating-point drift — at O(log n)
  // node merges instead of the old full refold.
  arrival_aggr_[idx] = cell_trees_[idx].aggregate(stream_arena_);
  invalidate_cell(in_port, out_port, priority);
  if (cell_counts_[idx] == 0) update_in_port_lists(in_port, out_port, priority);
  audit_invariants();
  return true;
}

template <typename Num>
std::optional<Num> BasicSwitchCac<Num>::computed_bound(
    std::size_t out_port, Priority priority) const {
  check_ports(0, out_port, priority);
  return ensure_bound(out_port, priority);
}

template <typename Num>
std::optional<Num> BasicSwitchCac<Num>::buffer_requirement(
    std::size_t out_port, Priority priority) const {
  check_ports(0, out_port, priority);
  const Stream& offered = ensure_offered(out_port, priority);
  if (offered.is_zero()) return Num(0);
  return max_backlog(offered, ensure_hp_filtered(out_port, priority));
}

template <typename Num>
std::size_t BasicSwitchCac<Num>::connection_count(std::size_t out_port,
                                                  Priority priority) const {
  check_ports(0, out_port, priority);
  std::size_t count = 0;
  for (std::size_t i = 0; i < config_.in_ports; ++i) {
    count += cell_counts_[cell_index(i, out_port, priority)];
  }
  return count;
}

template <typename Num>
Num BasicSwitchCac<Num>::sustained_load(std::size_t out_port,
                                        Priority priority) const {
  check_ports(0, out_port, priority);
  Num load{0};
  for (std::size_t i = 0; i < config_.in_ports; ++i) {
    load += arrival_aggr_[cell_index(i, out_port, priority)].final_rate();
  }
  return load;
}

template <typename Num>
const typename BasicSwitchCac<Num>::Stream&
BasicSwitchCac<Num>::arrival_aggregate(std::size_t in_port,
                                       std::size_t out_port,
                                       Priority priority) const {
  check_ports(in_port, out_port, priority);
  return arrival_aggr_[cell_index(in_port, out_port, priority)];
}

template <typename Num>
bool BasicSwitchCac<Num>::state_consistent() const {
  for (std::size_t i = 0; i < config_.in_ports; ++i) {
    for (std::size_t j = 0; j < config_.out_ports; ++j) {
      for (Priority p = 0; p < config_.priorities; ++p) {
        const std::size_t idx = cell_index(i, j, p);
        if (cell_members_[idx].size() != cell_counts_[idx]) return false;
        const auto& tree = cell_trees_[idx];
        // Tree bookkeeping: one live leaf per member, internal nodes
        // re-derivable from the leaves (coherent() is also false when a
        // flush is pending, which a completed mutation never leaves).
        if (tree.size() != cell_counts_[idx]) return false;
        if (!tree.coherent()) return false;
        for (const ConnectionId id : cell_members_[idx]) {
          const auto rit = records_.find(id);
          if (rit == records_.end() || !tree.leaf_live(rit->second.slot)) {
            return false;
          }
        }
        // The cached aggregate must be exactly what the tree's root
        // materializes to (deterministic, so bitwise comparable).
        if (!(arrival_aggr_[idx] == tree.materialized())) return false;
        const Stream expect = rebuild_cell(i, j, p);
        if (config_.coalesce_budget == 0) {
          if (!expect.nearly_equal(arrival_aggr_[idx])) return false;
        } else {
          // Conservative contract: the coalesced aggregate dominates the
          // exact fold pointwise and preserves its sustained (tail) rate.
          if (!arrival_aggr_[idx].dominates(expect)) return false;
          if (!NumTraits<Num>::nearly_equal(arrival_aggr_[idx].final_rate(),
                                            expect.final_rate())) {
            return false;
          }
        }
      }
    }
  }
  // The live in-port lists are what the member counts make of them.
  for (std::size_t j = 0; j < config_.out_ports; ++j) {
    std::vector<char> above(config_.in_ports, 0);
    for (Priority p = 0; p < config_.priorities; ++p) {
      std::vector<std::size_t> live;
      std::vector<std::size_t> hp;
      for (std::size_t i = 0; i < config_.in_ports; ++i) {
        if (above[i] != 0) hp.push_back(i);
        if (cell_counts_[cell_index(i, j, p)] > 0) {
          live.push_back(i);
          above[i] = 1;
        }
      }
      const std::size_t q = queue_index(j, p);
      if (live != live_in_ports_[q] || hp != hp_in_ports_[q]) return false;
    }
  }
  // Membership index and record map must describe the same connection set.
  std::size_t indexed = 0;
  for (const auto& members : cell_members_) indexed += members.size();
  if (indexed != records_.size()) return false;
  // Every finite-lease record appears in the lease index exactly once and
  // nothing else does.
  std::size_t finite = 0;
  for (const auto& [id, rec] : records_) {
    if (rec.lease_expiry == kPermanentLease) continue;
    ++finite;
    const auto [first, last] = lease_index_.equal_range(rec.lease_expiry);
    bool found = false;
    for (auto it = first; it != last; ++it) {
      if (it->second == id) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return finite == lease_index_.size();
}

template <typename Num>
bool BasicSwitchCac<Num>::bandwidth_conserved() const {
  // The tail (sustained) rate of a multiplexed aggregate is the exact sum
  // of its components' tail rates, so per-cell sums must match the cached
  // aggregates — up to numeric tolerance for the double instantiation.
  std::vector<Num> expected(arrival_aggr_.size(), Num(0));
  for (const auto& [id, rec] : records_) {
    const std::size_t idx =
        cell_index(rec.in_port, rec.out_port, rec.priority);
    expected[idx] += cell_trees_[idx].leaf(rec.slot).final_rate();
  }
  for (std::size_t k = 0; k < arrival_aggr_.size(); ++k) {
    if (!NumTraits<Num>::nearly_equal(arrival_aggr_[k].final_rate(),
                                      expected[k])) {
      return false;
    }
  }
  return true;
}

template <typename Num>
bool BasicSwitchCac<Num>::cache_coherent() const {
  const auto bounds_match = [](const std::optional<Num>& a,
                               const std::optional<Num>& b) {
    if (a.has_value() != b.has_value()) return false;
    return !a.has_value() || NumTraits<Num>::nearly_equal(*a, *b);
  };
  for (std::size_t i = 0; i < config_.in_ports; ++i) {
    for (std::size_t j = 0; j < config_.out_ports; ++j) {
      for (Priority p = 0; p < config_.priorities; ++p) {
        const std::size_t c = cell_index(i, j, p);
        // No fill visits an in-port off the live lists, so its entries
        // must already be clean (at zero, which the checks below verify).
        if (cell_counts_[c] == 0 && filtered_cell_dirty_[c] != 0) {
          return false;
        }
        const std::vector<std::size_t>& hp = hp_in_ports_[queue_index(j, p)];
        if (hp_cell_dirty_[c] != 0 &&
            !std::binary_search(hp.begin(), hp.end(), i)) {
          return false;
        }
        if (filtered_cell_dirty_[c] == 0 &&
            !filtered_cell_[c].nearly_equal(filter(arrival_aggr_[c]))) {
          return false;
        }
        if (hp_cell_dirty_[c] == 0) {
          Stream expect;
          if (p > 0) {
            std::vector<const Stream*> parts;
            parts.reserve(p);
            for (Priority q = 0; q < p; ++q) {
              parts.push_back(&arrival_aggr_[cell_index(i, j, q)]);
            }
            expect = filter(multiplex_all(parts));
          }
          if (!hp_cell_filtered_[c].nearly_equal(expect)) return false;
        }
      }
    }
  }
  for (std::size_t j = 0; j < config_.out_ports; ++j) {
    for (Priority p = 0; p < config_.priorities; ++p) {
      const std::size_t q = queue_index(j, p);
      // Recompute each clean entry from the raw cells only — deliberately
      // not via the ensure_* accessors, so a corrupted upstream cache
      // cannot vouch for a downstream one.
      std::optional<Stream> offered;
      if (offered_dirty_[q] == 0 || bound_dirty_[q] == 0) {
        std::vector<Stream> fresh;
        fresh.reserve(config_.in_ports);
        for (std::size_t i = 0; i < config_.in_ports; ++i) {
          fresh.push_back(filter(arrival_aggr_[cell_index(i, j, p)]));
        }
        offered = multiplex_all(std::span<const Stream>(fresh));
      }
      if (offered_dirty_[q] == 0 && !offered_cache_[q].nearly_equal(*offered)) {
        return false;
      }
      std::optional<Stream> hp;
      if (hp_filtered_dirty_[q] == 0 || bound_dirty_[q] == 0) {
        std::vector<Stream> fresh;
        fresh.reserve(config_.in_ports);
        for (std::size_t i = 0; i < config_.in_ports; ++i) {
          if (p == 0) {
            fresh.emplace_back();
            continue;
          }
          std::vector<const Stream*> parts;
          parts.reserve(p);
          for (Priority r = 0; r < p; ++r) {
            parts.push_back(&arrival_aggr_[cell_index(i, j, r)]);
          }
          fresh.push_back(filter(multiplex_all(parts)));
        }
        hp = filter(multiplex_all(std::span<const Stream>(fresh)));
      }
      if (hp_filtered_dirty_[q] == 0 &&
          !hp_filtered_cache_[q].nearly_equal(*hp)) {
        return false;
      }
      if (bound_dirty_[q] == 0) {
        const std::optional<Num> expect =
            offered->is_zero() ? std::optional<Num>(Num(0))
                               : delay_bound(*offered, *hp);
        if (!bounds_match(bound_cache_[q], expect)) return false;
      }
    }
  }
  return true;
}

template <typename Num>
void BasicSwitchCac<Num>::prime_caches() const {
  for (std::size_t j = 0; j < config_.out_ports; ++j) {
    for (Priority p = 0; p < config_.priorities; ++p) {
      // ensure_offered fills the filtered cell of every live in-port of
      // queue (j, p) and ensure_hp_filtered the higher-priority union of
      // every in-port with traffic above p; the mutators keep all other
      // entries clean at zero, so after this sweep no dirty flag is left
      // set anywhere.  ensure_bound alone is not enough: it skips the hp
      // aggregate when the queue is idle.
      (void)ensure_offered(j, p);
      (void)ensure_hp_filtered(j, p);
      (void)ensure_bound(j, p);
    }
  }
}

template <typename Num>
std::shared_ptr<const BasicPointSections<Num>>
BasicSwitchCac<Num>::export_point_sections(
    std::size_t out_port, const BasicPointSections<Num>* previous,
    std::span<const std::size_t> stale_priorities) const {
  check_ports(0, out_port, 0);
  RTCAC_ASSERT(previous == nullptr ||
                   (previous->out_port == out_port &&
                    previous->sections.size() == config_.priorities),
               "SwitchCac: snapshot export given a foreign previous export");
  std::vector<char> stale(config_.priorities, previous == nullptr ? 1 : 0);
  for (const std::size_t p : stale_priorities) {
    if (p < config_.priorities) stale[p] = 1;
  }
  auto sections = std::make_shared<BasicPointSections<Num>>();
  sections->out_port = out_port;
  sections->in_ports = config_.in_ports;
  sections->sections.resize(config_.priorities);
  for (Priority p = 0; p < config_.priorities; ++p) {
    if (stale[p] == 0) {
      // Untouched priority: re-link the previous generation's section.
      sections->sections[p] = previous->sections[p];
      continue;
    }
    // Only the listed in-ports' streams are copied, in list order; every
    // other in-port holds the zero stream there.
    const std::size_t q = queue_index(out_port, p);
    const std::vector<std::size_t>& live = live_in_ports_[q];
    const std::vector<std::size_t>& above = hp_in_ports_[q];
    auto section = std::make_shared<BasicQueueSection<Num>>();
    section->live_in_ports = live;
    section->cells.reserve(live.size());
    section->filtered.reserve(live.size());
    for (const std::size_t i : live) {
      section->cells.push_back(arrival_aggr_[cell_index(i, out_port, p)]);
      section->filtered.push_back(ensure_filtered_cell(i, out_port, p));
    }
    section->hp_in_ports = above;
    section->hp_cells.reserve(above.size());
    for (const std::size_t i : above) {
      section->hp_cells.push_back(ensure_hp_cell(i, out_port, p));
    }
    section->offered = ensure_offered(out_port, p);
    section->hp_filtered = ensure_hp_filtered(out_port, p);
    section->advertised = advertised_[q];
    sections->sections[p] = std::move(section);
  }
  return sections;
}

template <typename Num>
std::vector<std::size_t> BasicSwitchCac<Num>::dirty_queue_keys() const {
  // invalidate_cell() marks bound_dirty_ for the mutated queue and every
  // level below it at the same out-port, so the dirty bound set is
  // exactly the set of queueing points whose snapshot sections (and
  // versions) a mutation invalidated.
  std::vector<std::size_t> keys;
  for (std::size_t q = 0; q < bound_dirty_.size(); ++q) {
    if (bound_dirty_[q] != 0) keys.push_back(q);
  }
  return keys;
}

template <typename Num>
CacArenaStats BasicSwitchCac<Num>::arena_stats() const {
  CacArenaStats st;
  st.pooled_bytes = stream_arena_.pooled_bytes();
  st.arena_acquires = stream_arena_.acquires();
  st.arena_reuses = stream_arena_.reuses();
  for (const auto& tree : cell_trees_) {
    st.held_bytes += tree.held_bytes();
    st.held_segments += tree.held_segments();
    st.peak_segments += tree.peak_segments();
  }
  return st;
}

template <typename Num>
void BasicSwitchCac<Num>::audit_invariants() const {
  RTCAC_INVARIANT_AUDIT(
      bandwidth_conserved(),
      "SwitchCac: sustained bandwidth not conserved across S_ia cells");
  RTCAC_INVARIANT_AUDIT(
      state_consistent(),
      "SwitchCac: cached aggregates diverged from connection records");
  RTCAC_INVARIANT_AUDIT(
      cache_coherent(),
      "SwitchCac: derived-stream cache diverged from its inputs");
}

template class BasicSwitchCac<double>;
template class BasicSwitchCac<Rational>;

}  // namespace rtcac
