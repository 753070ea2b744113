// rtcac/core/switch_cac.h
//
// Per-switch connection admission control state and check — the heart of
// Section 4.3 of the paper.
//
// A switch with static-priority FIFO output queues keeps, for every
// (incoming port i, outgoing port j, priority p), the worst-case arrival
// streams of the connections routed (i -> j) at priority p.  From these it
// derives, per the paper's bookkeeping:
//
//   S_ia(i,j,p)   aggregate of the (i,j,p) connection arrival streams
//   S_if(i,j,p)   = filter(S_ia(i,j,p))      — smoothed by the in-link
//   S_oa(j,p)     = mux_i S_if(i,j,p)        — offered to out-queue (j,p)
//   S_hp_ia(i,j,p) aggregate over priorities *higher* than p
//   S_of(j,p)     = filter(mux_i filter(S_hp_ia(i,j,p)))
//                                            — hp traffic on out-link j
//   D'(j,p)       = delay_bound(S_oa(j,p), S_of(j,p))
//
// The switch advertises a fixed bound Dmax(j,p) per outgoing queue (its
// FIFO depth in cells); a new connection is admissible iff, with its
// stream added, D'(j,p) and D'(j,q) for every lower priority q stay within
// the advertised bounds (higher priorities cannot be affected).  Because
// the advertised bounds are fixed, upstream CDV accumulation never needs
// to be re-iterated when load changes — the paper's key simplification.
//
// check() is a pure trial; add()/remove() mutate state.  remove() restores
// the exact state (aggregates are rebuilt from the per-connection records,
// so floating-point drift cannot accumulate across setup/teardown cycles).
// rekey() moves a committed reservation onto a new id (the rebind that
// ends a MODIFY or reroute, core/path_eval.h): it leaves the state
// remove() + add() of the same stream would leave, but touches neither
// the merge tree nor a derived cache.  Records are a hash index; the id
// listings sort.
//
// Admission hot path (docs/PERFORMANCE.md): every derived stream the check
// needs — the filtered per-cell streams S_if, the higher-priority unions,
// the per-(out, priority) offered aggregates S_oa / filtered aggregates
// S_of — and the committed-set bounds D' behind computed_bound() are
// cached with dirty-tracking.  A mutation at cell (i, j, p) invalidates
// only the entries that cell feeds (its own filtered stream, S_oa(j, p),
// and the higher-priority caches of every level below p at out-port j);
// everything else survives, so check() composes cached streams with the
// candidate via the k-way multiplex_all instead of re-folding the whole
// switch, and only at the levels that gate its verdict (the candidate's
// priority and below; core/point_snapshot.h).  Each queue (j, q) also
// keeps two ascending in-port lists, the View's live_in_ports(q) and
// hp_in_ports(q): the in-ports whose cell (i, j, q) has a member, and
// those with a member at some priority above q.  They change only when a
// cell's member count crosses between 0 and 1, and the merges over
// in-ports (the check, the offered and higher-priority fills, the
// snapshot export) read only the in-ports on them.  The mutation that
// empties a cell also resets the derived streams it leaves at zero (its
// filtered stream, and the higher-priority union of every level below it
// on an in-port with nothing left above) to the zero stream, marked
// clean: no fill visits them while their in-port is off the list, and a
// primed switch keeps no dirty entry and no stale block.
// check_from_scratch() keeps
// the pre-optimization fold over the same levels: it is the oracle the
// cache-coherence property tests compare against and the baseline the
// admission benchmark measures.  Under RTCAC_CONTRACT_AUDIT every mutation
// re-verifies cache coherence (cache_coherent()) alongside the existing
// state-consistency and bandwidth-conservation audits.
//
// Scaling (docs/PERFORMANCE.md, "Mergeable aggregates"): each S_ia cell is
// backed by a BasicStreamMergeTree (core/merge_tree.h) owning the member
// arrival streams as leaves, so add()/remove() re-merge only an O(log n)
// root path instead of refolding the cell, with node buffers pooled in a
// per-switch BasicStreamArena (core/stream_arena.h).  With
// Config::coalesce_budget == 0 (the default) aggregates are exact and the
// behavior is unchanged; a non-zero budget caps every tree node at that
// many segments by conservative breakpoint dropping — the aggregate then
// *dominates* the exact multiplex pointwise (offered load only ever
// over-estimated, delay bounds only ever larger), so check() may reject
// connections the exact oracle admits but can never admit one it rejects.
// check_from_scratch() stays exact in both modes: it folds straight from
// the per-connection records and never reads the (possibly coalesced)
// aggregates.
//
// Fault tolerance: a commit may carry a *lease* — an expiry instant on the
// caller's clock.  A hop reserved by a distributed SETUP holds its
// bandwidth only until the lease runs out; CONNECTED (via
// ConnectionManager::adopt) makes it permanent, retransmitted SETUPs renew
// it, and reclaim(now) sweeps whatever expired so a lost message can never
// leak reserved bandwidth forever (docs/FAULT_TOLERANCE.md).
//
// Like the stream algebra, the engine is generic over its scalar:
// `SwitchCac` (double) is the production instantiation; `ExactSwitchCac`
// (Rational) decides exactly at the boundary — a computed bound equal to
// the advertised bound admits, bit for bit, independent of evaluation
// order.  Both are explicitly instantiated in switch_cac.cpp.

#pragma once

#include <cstddef>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/bitstream.h"
#include "core/connection.h"
#include "core/delay_bound.h"
#include "core/merge_tree.h"
#include "core/point_snapshot.h"
#include "core/stream_arena.h"
#include "core/stream_ops.h"
#include "util/contract.h"

namespace rtcac {

struct SwitchCacTestAccess;  // white-box corruption hook for audit tests

/// Allocation/footprint counters of one switch's mergeable-aggregate
/// storage (merge trees + segment arena); reported by the admission bench
/// as the memory columns of BENCH_admission.json.
struct CacArenaStats {
  /// Bytes of segment storage parked in the arena pool (reusable).
  std::size_t pooled_bytes = 0;
  /// Bytes of segment storage held by live merge-tree node buffers.
  std::size_t held_bytes = 0;
  /// Segments currently stored across all trees (leaves + nodes).
  std::size_t held_segments = 0;
  /// Sum of each tree's high-water segment count over its lifetime.
  std::size_t peak_segments = 0;
  /// Buffer acquisitions, and how many the arena served from its pool
  /// instead of the heap.
  std::size_t arena_acquires = 0;
  std::size_t arena_reuses = 0;
};

/// CAC state of one static-priority FIFO switch.
template <typename Num>
class BasicSwitchCac {
 public:
  using Stream = BasicBitStream<Num>;
  using CheckResult = BasicSwitchCheckResult<Num>;

  struct Config {
    std::size_t in_ports = 0;
    std::size_t out_ports = 0;
    std::size_t priorities = 1;
    /// Default advertised per-queue delay bound Dmax (cell times); equal
    /// to the FIFO queue depth in cells, per the paper's RTnet setup.
    Num advertised_bound = Num(32);
    /// Per-node segment cap of the mergeable aggregates.  0 (default)
    /// means exact aggregates; a value >= 2 bounds every aggregate's
    /// size, making per-admission cost independent of population at the
    /// price of admit-side-conservative (never optimistic) decisions —
    /// see the header comment.
    std::size_t coalesce_budget = 0;
  };

  /// Throws std::invalid_argument on a degenerate config.
  explicit BasicSwitchCac(const Config& config);

  [[nodiscard]] std::size_t in_ports() const noexcept {
    return config_.in_ports;
  }
  [[nodiscard]] std::size_t out_ports() const noexcept {
    return config_.out_ports;
  }
  [[nodiscard]] std::size_t priorities() const noexcept {
    return config_.priorities;
  }

  /// Advertised (fixed) bound for outgoing queue (j, p).
  [[nodiscard]] Num advertised(std::size_t out_port, Priority priority) const;
  void set_advertised(std::size_t out_port, Priority priority, Num bound);

  /// Trial admission of a connection with worst-case arrival stream
  /// `arrival` (already CDV-distorted for this hop) routed in->out at
  /// `priority`.  Does not mutate state.
  [[nodiscard]] CheckResult check(std::size_t in_port, std::size_t out_port,
                                  Priority priority,
                                  const Stream& arrival) const;

  /// Same trial decision computed the pre-optimization way: every S_ia
  /// cell re-folded straight from the per-connection records with two-way
  /// multiplex, every bound evaluated by the reference candidate scan, no
  /// caches (and no coalesced aggregates) touched.  Kept as the exact
  /// oracle for the cache-coherence and conservative-dominance property
  /// suites and as the baseline bench/cac_admission_bench measures the
  /// fast path against.
  [[nodiscard]] CheckResult check_from_scratch(std::size_t in_port,
                                               std::size_t out_port,
                                               Priority priority,
                                               const Stream& arrival) const;

  /// Lease expiry marking a permanent (non-expiring) commitment.
  static constexpr double kPermanentLease =
      std::numeric_limits<double>::infinity();

  /// Commits a connection.  Call after a successful check(); add() itself
  /// does not re-verify bounds.  Throws std::invalid_argument on duplicate
  /// id or out-of-range ports.  `lease_expiry` is the instant (caller's
  /// clock) the reservation may be reclaimed as an orphan; the default
  /// commits permanently.
  void add(ConnectionId id, std::size_t in_port, std::size_t out_port,
           Priority priority, const Stream& arrival,
           double lease_expiry = kPermanentLease);

  /// Removes a connection; returns false if the id is unknown.
  bool remove(ConnectionId id);

  /// Moves the reservation of `from` onto the new id `to` with lease
  /// `lease_expiry`, leaving exactly the state remove(from) + add(to, ...)
  /// of the same stream at the same ports leaves (the tree's free list is
  /// LIFO, so that add refills the freed slot), but in place: only the
  /// record, its lease-index entry and the cell membership move, the
  /// last by erase-then-append to keep rebuild_cell()'s fold order.
  /// Throws std::invalid_argument for an unknown `from`, a `to` already
  /// present, or ports/priority other than the record's.
  void rekey(ConnectionId from, ConnectionId to, std::size_t in_port,
             std::size_t out_port, Priority priority,
             double lease_expiry = kPermanentLease);

  /// Removes every (known) id in `ids` in one batch — each touched S_ia
  /// cell is rebuilt once and the invariant audit runs once, the same
  /// amortization reclaim() uses.  Unknown ids are skipped.  Returns the
  /// number of connections actually removed.
  std::size_t remove_many(std::span<const ConnectionId> ids);

  /// True iff `id` currently holds a reservation here.
  [[nodiscard]] bool contains(ConnectionId id) const noexcept {
    return records_.contains(id);
  }

  /// Extends (or shortens) the lease of a committed connection; returns
  /// false if the id is unknown.
  bool renew_lease(ConnectionId id, double lease_expiry);

  /// Converts a leased reservation into a permanent one (CONNECTED
  /// confirmed end to end); returns false if the id is unknown.
  bool make_permanent(ConnectionId id);

  /// Lease expiry of a committed connection.  Throws for an unknown id.
  [[nodiscard]] double lease_expiry(ConnectionId id) const;

  /// Removes every reservation whose lease expired at or before `now` and
  /// returns the reclaimed connection ids (ascending).  Permanent
  /// commitments are never reclaimed.
  std::vector<ConnectionId> reclaim(double now);

  /// Ids of all committed connections, ascending (sorted per call: the
  /// record index is unordered).
  [[nodiscard]] std::vector<ConnectionId> connection_ids() const;

  /// Ids of the connections queued at (out_port, priority), ascending —
  /// served from the per-cell membership index, not a record scan.
  [[nodiscard]] std::vector<ConnectionId> connection_ids(
      std::size_t out_port, Priority priority) const;

  /// Computed worst-case delay bound D'(j,p) with the current connection
  /// set; nullopt when unbounded.  Zero traffic yields 0.
  [[nodiscard]] std::optional<Num> computed_bound(std::size_t out_port,
                                                  Priority priority) const;

  /// Worst-case backlog (buffer requirement, cells) of queue (j, p);
  /// nullopt when unbounded.
  [[nodiscard]] std::optional<Num> buffer_requirement(
      std::size_t out_port, Priority priority) const;

  [[nodiscard]] std::size_t connection_count() const noexcept {
    return records_.size();
  }

  /// Connections queued at (out_port, priority).
  [[nodiscard]] std::size_t connection_count(std::size_t out_port,
                                             Priority priority) const;

  /// Long-run (sustained) load offered to queue (out_port, priority):
  /// the tail rate of the offered aggregate, normalized to the link.
  [[nodiscard]] Num sustained_load(std::size_t out_port,
                                   Priority priority) const;

  /// Aggregated arrival stream S_ia(i,j,p) (mostly for tests/diagnostics).
  [[nodiscard]] const Stream& arrival_aggregate(std::size_t in_port,
                                                std::size_t out_port,
                                                Priority priority) const;

  /// Verifies the aggregate state against the per-connection records:
  /// merge-tree node coherence, slot bookkeeping, and — in exact mode —
  /// that every cached aggregate equals the mux of its component streams
  /// (within tolerance).  In coalescing mode the aggregate must instead
  /// dominate the exact mux pointwise with the tail rate preserved (the
  /// conservative contract).  The live in-port lists of every queue must
  /// equal the lists rebuilt from the member counts.  Test/diagnostic
  /// hook; O(n).
  [[nodiscard]] bool state_consistent() const;

  /// Verifies sustained-bandwidth conservation: for every S_ia cell, the
  /// aggregate's tail rate equals the sum of its component connections'
  /// tail rates (the multiplex algebra is rate-additive, so any drift
  /// means the bookkeeping corrupted an aggregate).  Test/diagnostic
  /// hook; O(n).
  [[nodiscard]] bool bandwidth_conserved() const;

  /// Verifies that every *clean* (non-dirty) derived-stream/bound cache
  /// entry equals its from-scratch recomputation.  Dirty entries are
  /// skipped: they are recomputed on next use by construction — except
  /// the per-cell entries of an in-port off the queue's live lists, which
  /// no fill visits and so must be clean.  Test/diagnostic hook; O(n).
  [[nodiscard]] bool cache_coherent() const;

  /// Fills every lazy derived-stream/bound cache so no entry is left
  /// dirty: the fills visit the live in-ports of each queue, and the
  /// mutators keep every other in-port's entries clean at the zero
  /// stream.  The concurrency layer (core/concurrent_cac.h) calls this
  /// after every mutation, before releasing the shard's exclusive lock:
  /// a fully primed switch makes check() and the bound queries genuinely
  /// read-only, so any number of readers may run them concurrently under
  /// a shared lock without racing on the mutable cache members.  check()
  /// never reads the bound cache, but computed_bound() does
  /// (ConcurrentCac::computed_bound, under a shared lock), so priming
  /// fills it too.
  void prime_caches() const;

  /// Allocation counters of the merge-tree/arena storage (bench hook).
  [[nodiscard]] CacArenaStats arena_stats() const;

  /// Immutable export of out-port `out_port`'s derived streams for the
  /// optimistic snapshot read path (core/point_snapshot.h).  Sections
  /// whose priority appears in `stale_priorities` are rebuilt from the
  /// caches; every other section is re-linked (shared) from `previous`,
  /// which must be a prior export of the same out-port — or nullptr to
  /// rebuild everything.  Requires primed caches (prime_caches()), which
  /// makes the export a pure read: safe under the concurrency layer's
  /// shared lock.
  [[nodiscard]] std::shared_ptr<const BasicPointSections<Num>>
  export_point_sections(std::size_t out_port,
                        const BasicPointSections<Num>* previous,
                        std::span<const std::size_t> stale_priorities) const;

  /// Queue keys (out_port * priorities + priority) whose computed bound
  /// is currently dirty — exactly the queueing points the mutations
  /// since the last priming invalidated, i.e. the snapshot versions the
  /// concurrency layer must advance.  Read it *before* prime_caches():
  /// priming clears the flags.
  [[nodiscard]] std::vector<std::size_t> dirty_queue_keys() const;

  /// The configured per-node segment cap (0 = exact mode).
  [[nodiscard]] std::size_t coalesce_budget() const noexcept {
    return config_.coalesce_budget;
  }

 private:
  struct Record {
    std::size_t in_port;
    std::size_t out_port;
    Priority priority;
    /// Leaf slot of this connection's arrival stream in its cell's merge
    /// tree — the tree owns the stream; read it via cell_trees_[...].leaf.
    std::size_t slot;
    double lease_expiry = kPermanentLease;
  };
  using RecordMap = std::unordered_map<ConnectionId, Record>;

  [[nodiscard]] std::size_t cell_index(std::size_t in_port,
                                       std::size_t out_port,
                                       Priority priority) const;
  [[nodiscard]] std::size_t queue_index(std::size_t out_port,
                                        Priority priority) const;
  void check_ports(std::size_t in_port, std::size_t out_port,
                   Priority priority) const;

  /// Rebuilds S_ia(i,j,p) from the cell's membership index (k-way mux of
  /// the member connections' arrival streams).
  [[nodiscard]] Stream rebuild_cell(std::size_t in_port,
                                    std::size_t out_port,
                                    Priority priority) const;

  /// Marks every derived cache fed by cell (i,j,p) dirty.  The only place
  /// invalidation happens; called from each mutator.
  void invalidate_cell(std::size_t in_port, std::size_t out_port,
                       Priority priority);

  /// Brings in-port `in_port`'s entries of the live lists of queues
  /// (out_port, q >= priority) in line with the member counts, after cell
  /// (in_port, out_port, priority) crossed between 0 and 1 members and
  /// was invalidated.  A derived entry the crossing leaves at zero (the
  /// emptied cell's filtered stream, the higher-priority union of a level
  /// with nothing left above it on this in-port) is reset to the zero
  /// stream and marked clean.
  void update_in_port_lists(std::size_t in_port, std::size_t out_port,
                            Priority priority);

  /// Erases one record plus its index/aggregate bookkeeping — tree leaf,
  /// membership, lease index — WITHOUT re-merging the touched cell;
  /// returns its cell index.  Shared by remove(), remove_many() and the
  /// batched reclaim().
  std::size_t remove_record_bookkeeping(typename RecordMap::iterator it);

  /// Removes (expiry, id) from the finite-lease index; no-op for a
  /// permanent lease.
  void drop_lease_index_entry(double expiry, ConnectionId id);

  /// Rebuilds (and invalidates the derived caches of) every cell index
  /// in `touched` exactly once — `touched` is sorted/deduplicated in
  /// place.  The shared tail of the batched mutators (reclaim,
  /// remove_many).
  void rebuild_cells(std::vector<std::size_t>& touched);

  // --- lazily rebuilt derived-stream caches (cache_coherent() audits) ---

  /// S_if(i,j,p) = filter(S_ia(i,j,p)).
  [[nodiscard]] const Stream& ensure_filtered_cell(std::size_t in_port,
                                                   std::size_t out_port,
                                                   Priority priority) const;
  /// filter of the strictly-higher-priority union on in-link i toward j:
  /// filter(mux_{q < p} S_ia(i,j,q)).
  [[nodiscard]] const Stream& ensure_hp_cell(std::size_t in_port,
                                             std::size_t out_port,
                                             Priority priority) const;
  /// S_oa(j,p) = mux_i S_if(i,j,p), over the queue's live in-ports.
  [[nodiscard]] const Stream& ensure_offered(std::size_t out_port,
                                             Priority priority) const;
  /// S_of(j,p) = filter(mux_i ensure_hp_cell(i,j,p)), over the in-ports
  /// with traffic above p.
  [[nodiscard]] const Stream& ensure_hp_filtered(std::size_t out_port,
                                                 Priority priority) const;
  /// D'(j,p) over the committed set (no trial stream).
  [[nodiscard]] const std::optional<Num>& ensure_bound(std::size_t out_port,
                                                       Priority priority) const;

  /// View over the live caches satisfying check_point_view's concept
  /// (core/point_snapshot.h) — check() runs the shared per-point
  /// algorithm through it, so the live path and the exported snapshot
  /// path are one algorithm by construction.  Defined in switch_cac.cpp.
  struct CheckView;

  // --- pre-optimization reference path (frozen; see check_from_scratch) --

  [[nodiscard]] Stream offered_aggregate_scratch(std::size_t out_port,
                                                 Priority priority,
                                                 const Stream& extra,
                                                 std::size_t extra_in,
                                                 Priority extra_prio) const;
  [[nodiscard]] Stream higher_priority_filtered_scratch(
      std::size_t out_port, Priority priority, const Stream& extra,
      std::size_t extra_in, Priority extra_prio) const;

  /// Re-audits the full CAC state (aggregate/record consistency,
  /// bandwidth conservation and cache coherence) via
  /// RTCAC_INVARIANT_AUDIT; compiles to nothing outside audit builds.
  /// Called after every mutation.
  void audit_invariants() const;

  Config config_;
  std::vector<Num> advertised_;        // [out * priorities + prio]
  std::vector<Stream> arrival_aggr_;   // S_ia per (in, out, prio)
  std::vector<std::size_t> cell_counts_;  // #connections per (in, out, prio)
  // Per (out, prio) queue, ascending: the in-ports whose cell has a
  // member, and the in-ports with a member at a higher priority.  Derived
  // from cell_counts_ (state_consistent() rebuilds and compares them).
  std::vector<std::vector<std::size_t>> live_in_ports_;
  std::vector<std::vector<std::size_t>> hp_in_ports_;
  // Membership index: ids per S_ia cell in insertion order, so rebuilds
  // and per-queue queries never scan the full record map.
  std::vector<std::vector<ConnectionId>> cell_members_;
  // Looked up by id only; the id listings sort their copies.
  RecordMap records_;
  // Mergeable aggregate state: one merge tree per S_ia cell owning the
  // member arrival streams (Record::slot indexes its leaves), node
  // buffers pooled in the arena.  arrival_aggr_[c] is always the
  // materialized root of cell_trees_[c].  Mutated only by the mutators
  // (add/remove*/reclaim paths) — check() and the bound queries never
  // touch either, which is what keeps shared-lock readers in
  // ConcurrentCac race-free.
  std::vector<BasicStreamMergeTree<Num>> cell_trees_;
  BasicStreamArena<Num> stream_arena_;
  // Finite-lease expiries, ordered: reclaim(now) walks the <= now prefix
  // instead of scanning every record.  Permanent commitments are absent.
  std::multimap<double, ConnectionId> lease_index_;

  // Derived-stream caches (indexes mirror arrival_aggr_ / advertised_),
  // rebuilt lazily by the ensure_* accessors; `..._dirty_` set by
  // invalidate_cell(), and an entry an emptied cell leaves at zero reset
  // clean by update_in_port_lists().  Mutable: check() and the bound
  // queries are logically const.
  mutable std::vector<Stream> filtered_cell_;        // per cell
  mutable std::vector<Stream> hp_cell_filtered_;     // per cell
  mutable std::vector<Stream> offered_cache_;        // per (out, prio)
  mutable std::vector<Stream> hp_filtered_cache_;    // per (out, prio)
  mutable std::vector<std::optional<Num>> bound_cache_;  // per (out, prio)
  mutable std::vector<char> filtered_cell_dirty_;
  mutable std::vector<char> hp_cell_dirty_;
  mutable std::vector<char> offered_dirty_;
  mutable std::vector<char> hp_filtered_dirty_;
  mutable std::vector<char> bound_dirty_;

  // Lets the invariant-audit tests corrupt internal state in place.
  friend struct SwitchCacTestAccess;
};

/// Production instantiation.
using SwitchCac = BasicSwitchCac<double>;
using SwitchCheckResult = BasicSwitchCheckResult<double>;

/// Exact instantiation: boundary-exact admission decisions.
using ExactSwitchCac = BasicSwitchCac<Rational>;
using ExactSwitchCheckResult = BasicSwitchCheckResult<Rational>;

extern template class BasicSwitchCac<double>;
extern template class BasicSwitchCac<Rational>;

}  // namespace rtcac
