// Allocation budgets of the shared stream storage and of the paper's
// per-point check (Alg. 4.1).
//
// A BitStream is a handle to one shared, immutable block (core/bitstream.h):
// copying, assigning and destroying one allocates nothing, the zero
// stream owns no block, and a new stream costs exactly one allocation.
// So a snapshot export copies handles: its allocation count does not grow
// with the in-ports whose streams it re-exports.
//
// check_point_view runs on span kernels over per-thread scratch
// (core/stream_scratch.h).  Once a thread's scratch has grown to the
// sizes a switch needs, an admitted check allocates only the bounds
// vector it returns, and a rejected one only that plus its reason text.
// The budget holds for the live SwitchCac::check on a primed (clean)
// switch and for the snapshot PointSnapshot::check, for both scalar
// instantiations, on a switch with more than 64 in-ports so every merge
// grows its cursor arrays past any small fixed size.  A cache fill whose
// kernel returns an input unchanged shares that input's block, so priming
// a switch whose one connection is link-feasible allocates nothing.
//
// The rebind at the end of a MODIFY re-keys each hop's reservation in
// place (SwitchCac::rekey): onto a permanent lease it moves one record
// node, one membership entry and drops the provisional lease, so it
// allocates nothing.
//
// A commit re-merges its cell's merge tree (core/merge_tree.h) along the
// leaf's root path, each node in its own buffer.  On a warmed cell with
// several members, a steady-state add allocates the cell's new root
// block plus the record and lease-index nodes, a remove only the new
// root block, and neither a node buffer.
//
// Allocations are counted by replacing the global operator new, which
// would count in every test that shared the binary — so this file is a
// test binary of its own.

#include <gtest/gtest.h>

#include <any>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "core/path_eval.h"
#include "core/point_snapshot.h"
#include "core/switch_cac.h"
#include "util/xorshift.h"

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;

}  // namespace

// GCC pairs the inlined free() below with its caller's operator new and
// flags the pair; they do match, since this operator new calls malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (t_counting) ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rtcac {
namespace {

/// Operator-new calls made on this thread while `fn` runs.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  t_allocations = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return t_allocations;
}

int* volatile g_escape = nullptr;

// The budgets below are upper bounds; this keeps a counter that saw
// nothing from passing them.
TEST(AllocationBudget, CounterSeesAllocations) {
  EXPECT_EQ(allocations_during([] { g_escape = new int(7); }), 1u);
  delete g_escape;
}

constexpr std::size_t kInPorts = 66;
constexpr std::size_t kOutPorts = 2;
constexpr std::size_t kPriorities = 4;

template <typename Num>
Num ratio(std::int64_t num, std::int64_t den) {
  if constexpr (NumTraits<Num>::kExact) {
    return Num(num, den);
  } else {
    return static_cast<double>(num) / static_cast<double>(den);
  }
}

/// A two- or three-step stream with dyadic rates and integer breakpoints:
/// exact in double, small denominators in Rational.
template <typename Num>
BasicBitStream<Num> small_stream(Xorshift& rng) {
  using Seg = BasicSegment<Num>;
  const auto peak = static_cast<std::int64_t>(2 + rng.below(7));  // /512
  const auto mid = static_cast<std::int64_t>(
      1 + rng.below(static_cast<std::uint64_t>(peak)));
  const auto burst = static_cast<std::int64_t>(1 + rng.below(48));
  return BasicBitStream<Num>{Seg{ratio<Num>(peak, 512), Num(0)},
                             Seg{ratio<Num>(mid, 512), Num(burst)},
                             Seg{ratio<Num>(1, 512), Num(burst + 16)}};
}

/// One connection per (in-port, priority) at out-port 0, a few at
/// out-port 1: every level of out-port 0 merges in_ports() non-zero
/// streams.  Sustained load stays near 0.5, so bounds are finite.
template <typename Num>
void populate(BasicSwitchCac<Num>& cac, Xorshift& rng) {
  ConnectionId id = 1;
  for (std::size_t in = 0; in < cac.in_ports(); ++in) {
    for (Priority p = 0; p < kPriorities; ++p) {
      cac.add(id++, in, 0, p, small_stream<Num>(rng));
    }
    if (in % 8 == 0) cac.add(id++, in, 1, 0, small_stream<Num>(rng));
  }
  cac.prime_caches();
}

template <typename Num>
void expect_stream_handles_allocate_nothing() {
  using Stream = BasicBitStream<Num>;
  Xorshift rng(3);
  const Stream s = small_stream<Num>(rng);
  Stream other = small_stream<Num>(rng);
  EXPECT_EQ(allocations_during([&] {
              Stream copy = s;
              other = copy;  // frees the only handle on other's block
              Stream moved = std::move(copy);
              copy = other;
              other = std::move(moved);
            }),
            0u);
  EXPECT_EQ(other, s);
  EXPECT_EQ(other.segments().data(), s.segments().data());
}

TEST(AllocationBudget, CopyingAssigningAndDestroyingStreamsAllocateNothing) {
  expect_stream_handles_allocate_nothing<double>();
  expect_stream_handles_allocate_nothing<Rational>();
}

TEST(AllocationBudget, ZeroStreamAllocatesNothing) {
  BitStream zero = BitStream::constant(0.5);
  ExactBitStream exact;
  EXPECT_EQ(allocations_during([&] {
              BitStream fresh;
              const BitStream copy = fresh;
              zero = copy;
              exact = ExactBitStream{};
            }),
            0u);
  EXPECT_TRUE(zero.is_zero());
  EXPECT_TRUE(exact.is_zero());
  // The zero result of a kernel is the same empty handle.
  const std::vector<Segment> zero_segments{Segment{0.0, 0.0}};
  EXPECT_EQ(allocations_during([&] {
              (void)BitStream::from_canonical(zero_segments);
            }),
            0u);
}

TEST(AllocationBudget, FromCanonicalAllocatesOneBlock) {
  const std::vector<Segment> segs{Segment{1.0, 0.0}, Segment{0.5, 4.0},
                                  Segment{0.125, 20.0}};
  BitStream s;
  EXPECT_EQ(allocations_during([&] { s = BitStream::from_canonical(segs); }),
            1u);
  EXPECT_EQ(s.bits_before(24.0), 4.0 + 8.0 + 0.5);
  const std::vector<ExactSegment> exact{ExactSegment{Rational(1), Rational(0)},
                                        ExactSegment{Rational(1, 3),
                                                     Rational(6)}};
  ExactBitStream e;
  EXPECT_EQ(
      allocations_during([&] { e = ExactBitStream::from_canonical(exact); }),
      1u);
  EXPECT_EQ(e.bits_before(Rational(9)), Rational(7));
}

/// Allocations of one republication of out-port 0 after a commit at
/// priority 1 dirtied it, on a primed switch with `in_ports` in-ports.
template <typename Num>
std::size_t stale_export_allocations(std::size_t in_ports) {
  using Cac = BasicSwitchCac<Num>;
  typename Cac::Config cfg;
  cfg.in_ports = in_ports;
  cfg.out_ports = kOutPorts;
  cfg.priorities = kPriorities;
  cfg.advertised_bound = Num(1 << 20);
  Cac cac(cfg);
  Xorshift rng(17);
  populate(cac, rng);
  const auto previous = cac.export_point_sections(0, nullptr, {});
  const std::size_t stale[] = {1};
  std::shared_ptr<const BasicPointSections<Num>> next;
  const std::size_t n = allocations_during(
      [&] { next = cac.export_point_sections(0, previous.get(), stale); });
  EXPECT_EQ(next->sections[0], previous->sections[0]);  // re-linked
  EXPECT_NE(next->sections[1], previous->sections[1]);  // rebuilt
  EXPECT_EQ(next->sections[1]->cells.size(), in_ports);
  return n;
}

TEST(AllocationBudget, SnapshotExportCopiesHandlesNotSegments) {
  EXPECT_EQ(stale_export_allocations<double>(18),
            stale_export_allocations<double>(kInPorts));
  EXPECT_EQ(stale_export_allocations<Rational>(18),
            stale_export_allocations<Rational>(kInPorts));
}

// A cache fill whose kernel returns an input unchanged keeps that input's
// handle.  With one link-feasible connection on an otherwise empty
// switch, every stream prime_caches() fills is the connection's own (its
// filtered cell, the offered aggregate of its queue, the higher-priority
// unions of the levels below it) or the zero stream, so once the thread's
// scratch is warm, priming allocates nothing.
template <typename Num>
void expect_lone_feasible_connection_primes_without_allocating() {
  using Cac = BasicSwitchCac<Num>;
  typename Cac::Config cfg;
  cfg.in_ports = kInPorts;
  cfg.out_ports = kOutPorts;
  cfg.priorities = kPriorities;
  Cac cac(cfg);
  Xorshift rng(23);
  const BasicBitStream<Num> arrival = small_stream<Num>(rng);
  ASSERT_LE(arrival.peak_rate(), Num(1));  // link-feasible

  // Warm-up: the same join and priming once, then the switch empties.
  cac.add(1, 3, 0, 1, arrival);
  cac.prime_caches();
  ASSERT_TRUE(cac.remove(1));
  cac.prime_caches();

  cac.add(2, 3, 0, 1, arrival);
  EXPECT_EQ(allocations_during([&] { cac.prime_caches(); }), 0u);
  EXPECT_EQ(cac.arrival_aggregate(3, 0, 1).segments().data(),
            arrival.segments().data());
  EXPECT_TRUE(cac.cache_coherent());
  EXPECT_TRUE(cac.computed_bound(0, kPriorities - 1).has_value());
}

TEST(AllocationBudget, LoneFeasibleConnectionPrimesWithoutAllocating) {
  expect_lone_feasible_connection_primes_without_allocating<double>();
  expect_lone_feasible_connection_primes_without_allocating<Rational>();
}

struct Candidate {
  std::size_t in_port;
  Priority priority;
};

const std::vector<Candidate>& candidates() {
  static const std::vector<Candidate> all{
      {0, 0}, {65, 0}, {3, 1}, {64, 2}, {17, 3}, {65, 3}};
  return all;
}

template <typename Num>
void expect_admitted_checks_allocate_only_bounds() {
  using Cac = BasicSwitchCac<Num>;
  typename Cac::Config cfg;
  cfg.in_ports = kInPorts;
  cfg.out_ports = kOutPorts;
  cfg.priorities = kPriorities;
  cfg.advertised_bound = Num(1 << 20);
  Cac cac(cfg);
  Xorshift rng(7);
  populate(cac, rng);
  const BasicBitStream<Num> arrival = small_stream<Num>(rng);

  // Warm-up: grows this thread's scratch to the switch's sizes.
  for (const Candidate& c : candidates()) {
    ASSERT_TRUE(cac.check(c.in_port, 0, c.priority, arrival).admitted);
  }
  for (const Candidate& c : candidates()) {
    BasicSwitchCheckResult<Num> result;
    const std::size_t n = allocations_during(
        [&] { result = cac.check(c.in_port, 0, c.priority, arrival); });
    ASSERT_TRUE(result.admitted) << result.reason;
    EXPECT_LE(n, 1u) << "in-port " << c.in_port << " priority "
                     << c.priority;
  }

  // The exported sections run the same check over immutable data.
  const auto sections = cac.export_point_sections(0, nullptr, {});
  for (const Candidate& c : candidates()) {
    (void)check_point_view<Num>(sections->view(), kPriorities, 0, c.in_port,
                                c.priority, arrival);
  }
  for (const Candidate& c : candidates()) {
    BasicSwitchCheckResult<Num> result;
    const std::size_t n = allocations_during([&] {
      result = check_point_view<Num>(sections->view(), kPriorities, 0,
                                     c.in_port, c.priority, arrival);
    });
    ASSERT_TRUE(result.admitted) << result.reason;
    EXPECT_LE(n, 1u) << "in-port " << c.in_port << " priority "
                     << c.priority;
  }
}

TEST(AllocationBudget, AdmittedCheckAllocatesOnlyItsBoundsDouble) {
  expect_admitted_checks_allocate_only_bounds<double>();
}

TEST(AllocationBudget, AdmittedCheckAllocatesOnlyItsBoundsExact) {
  expect_admitted_checks_allocate_only_bounds<Rational>();
}

TEST(AllocationBudget, AdmittedSnapshotCheckAllocatesOnlyItsBounds) {
  const auto point = BitstreamCacPolicy::instance().make_point(
      PointConfig{kInPorts, kOutPorts, kPriorities, 1 << 20, 0});
  Xorshift rng(11);
  ConnectionId id = 1;
  for (std::size_t in = 0; in < kInPorts; ++in) {
    for (Priority p = 0; p < kPriorities; ++p) {
      point->add(id++, in, 0, p, std::any(small_stream<double>(rng)),
                 SwitchCac::kPermanentLease);
    }
  }
  point->prime();
  const auto snapshot = point->export_point_snapshot(0, nullptr, {});
  ASSERT_NE(snapshot, nullptr);
  const std::any arrival(small_stream<double>(rng));

  for (const Candidate& c : candidates()) {
    ASSERT_TRUE(snapshot->check(c.in_port, c.priority, arrival).admitted);
  }
  for (const Candidate& c : candidates()) {
    HopVerdict verdict;
    const std::size_t n = allocations_during(
        [&] { verdict = snapshot->check(c.in_port, c.priority, arrival); });
    ASSERT_TRUE(verdict.admitted) << verdict.detail;
    EXPECT_LE(n, 1u) << "in-port " << c.in_port << " priority "
                     << c.priority;
  }
}

template <typename Num>
void expect_rejected_check_adds_only_its_reason() {
  using Cac = BasicSwitchCac<Num>;
  typename Cac::Config cfg;
  cfg.in_ports = kInPorts;
  cfg.out_ports = kOutPorts;
  cfg.priorities = kPriorities;
  cfg.advertised_bound = Num(1 << 20);
  Cac cac(cfg);
  Xorshift rng(13);
  populate(cac, rng);
  // A tight advertised bound at the lowest level rejects every candidate
  // there, after the whole check has run.
  cac.set_advertised(0, kPriorities - 1, Num(1));
  cac.prime_caches();
  const BasicBitStream<Num> arrival = small_stream<Num>(rng);

  for (const Candidate& c : candidates()) {
    ASSERT_FALSE(cac.check(c.in_port, 0, c.priority, arrival).admitted);
  }
  for (const Candidate& c : candidates()) {
    BasicSwitchCheckResult<Num> result;
    const std::size_t n = allocations_during(
        [&] { result = cac.check(c.in_port, 0, c.priority, arrival); });
    ASSERT_FALSE(result.admitted);
    const Priority q = kPriorities - 1;
    std::string reason;
    const std::size_t text = allocations_during([&] {
      reason = point_reject_reason(0, q, result.bounds[q], Num(1));
    });
    EXPECT_EQ(result.reason, reason);
    EXPECT_LE(n, 1 + text) << "in-port " << c.in_port << " priority "
                           << c.priority;
  }
}

TEST(AllocationBudget, RejectedCheckAddsOnlyItsReasonDouble) {
  expect_rejected_check_adds_only_its_reason<double>();
}

TEST(AllocationBudget, RejectedCheckAddsOnlyItsReasonExact) {
  expect_rejected_check_adds_only_its_reason<Rational>();
}

template <typename Num>
void expect_rekey_onto_a_permanent_lease_allocates_nothing() {
  using Cac = BasicSwitchCac<Num>;
  typename Cac::Config cfg;
  cfg.in_ports = kInPorts;
  cfg.out_ports = kOutPorts;
  cfg.priorities = kPriorities;
  cfg.advertised_bound = Num(1 << 20);
  Cac cac(cfg);
  Xorshift rng(29);
  populate(cac, rng);
  // A provisional reservation under a setup lease, with a newer member
  // of the same cell behind it, as a MODIFY walk leaves them.
  constexpr ConnectionId kProvisional = 5000;
  constexpr ConnectionId kStable = 7;
  ASSERT_TRUE(cac.remove(kStable));
  cac.add(kProvisional, 5, 0, 2, small_stream<Num>(rng), 64.0);
  cac.add(kProvisional + 1, 5, 0, 2, small_stream<Num>(rng));
  cac.prime_caches();
  EXPECT_EQ(allocations_during(
                [&] { cac.rekey(kProvisional, kStable, 5, 0, 2); }),
            0u);
  // Permanent onto permanent.
  EXPECT_EQ(allocations_during(
                [&] { cac.rekey(kStable, kProvisional, 5, 0, 2); }),
            0u);
  EXPECT_TRUE(cac.dirty_queue_keys().empty());
  EXPECT_TRUE(cac.reclaim(1e12).empty());
  EXPECT_TRUE(cac.state_consistent());
}

template <typename Num>
void expect_steady_state_commits_allocate_no_node_buffer() {
  using Cac = BasicSwitchCac<Num>;
  typename Cac::Config cfg;
  cfg.in_ports = kInPorts;
  cfg.out_ports = kOutPorts;
  cfg.priorities = kPriorities;
  cfg.advertised_bound = Num(1 << 20);
  Cac cac(cfg);
  Xorshift rng(31);
  populate(cac, rng);
  // Cell (5, 0, 2) gets six more members, so a commit there re-merges a
  // root path of several nodes.
  constexpr ConnectionId kMembers = 6000;
  for (ConnectionId id = kMembers; id < kMembers + 6; ++id) {
    cac.add(id, 5, 0, 2, small_stream<Num>(rng));
  }
  constexpr ConnectionId kChurn = 7000;
  const BasicBitStream<Num> arrival = small_stream<Num>(rng);
  // Warm-up: the same leased join and leave once.
  cac.add(kChurn, 5, 0, 2, arrival, 64.0);
  ASSERT_TRUE(cac.remove(kChurn));

  const CacArenaStats before = cac.arena_stats();
  // The root block, the record node and the lease-index node.
  EXPECT_EQ(allocations_during(
                [&] { cac.add(kChurn, 5, 0, 2, arrival, 64.0); }),
            3u);
  // The root block.
  EXPECT_EQ(allocations_during([&] { ASSERT_TRUE(cac.remove(kChurn)); }),
            1u);
  const CacArenaStats after = cac.arena_stats();
  EXPECT_GT(after.arena_acquires, before.arena_acquires);
  EXPECT_EQ(after.arena_reuses - before.arena_reuses,
            after.arena_acquires - before.arena_acquires);
  EXPECT_EQ(after.held_bytes, before.held_bytes);
  EXPECT_TRUE(cac.state_consistent());
}

TEST(AllocationBudget, SteadyStateAddAndRemoveAllocateNoNodeBuffer) {
  if (RTCAC_AUDIT_ENABLED) {
    GTEST_SKIP() << "audit builds re-verify the whole switch per mutation";
  }
  expect_steady_state_commits_allocate_no_node_buffer<double>();
  expect_steady_state_commits_allocate_no_node_buffer<Rational>();
}

TEST(AllocationBudget, RekeyOntoAPermanentLeaseAllocatesNothing) {
  if (RTCAC_AUDIT_ENABLED) {
    GTEST_SKIP() << "audit builds re-verify the whole switch per mutation";
  }
  expect_rekey_onto_a_permanent_lease_allocates_nothing<double>();
  expect_rekey_onto_a_permanent_lease_allocates_nothing<Rational>();
}

}  // namespace
}  // namespace rtcac
