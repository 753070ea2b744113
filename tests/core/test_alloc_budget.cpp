// Allocation budget of the paper's per-point check (Alg. 4.1).
//
// check_point_view runs on span kernels over per-thread scratch
// (core/stream_scratch.h).  Once a thread's scratch has grown to the
// sizes a switch needs, an admitted check allocates only the bounds
// vector it returns, and a rejected one only that plus its reason text.
// The budget holds for the live SwitchCac::check on a primed (clean)
// switch and for the snapshot PointSnapshot::check, for both scalar
// instantiations, on a switch with more than 64 in-ports so every merge
// grows its cursor arrays past any small fixed size.
//
// Allocations are counted by replacing the global operator new, which
// would count in every test that shared the binary — so this file is a
// test binary of its own.

#include <gtest/gtest.h>

#include <any>
#include <cstdint>
#include <cstdlib>
#include <new>
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
/// out-port 1: every level of out-port 0 merges kInPorts non-zero
/// streams.  Sustained load stays near 0.5, so bounds are finite.
template <typename Num>
void populate(BasicSwitchCac<Num>& cac, Xorshift& rng) {
  ConnectionId id = 1;
  for (std::size_t in = 0; in < kInPorts; ++in) {
    for (Priority p = 0; p < kPriorities; ++p) {
      cac.add(id++, in, 0, p, small_stream<Num>(rng));
    }
    if (in % 8 == 0) cac.add(id++, in, 1, 0, small_stream<Num>(rng));
  }
  cac.prime_caches();
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
    (void)check_point_view<Num>(sections->view(), kInPorts, kPriorities, 0,
                                c.in_port, c.priority, arrival);
  }
  for (const Candidate& c : candidates()) {
    BasicSwitchCheckResult<Num> result;
    const std::size_t n = allocations_during([&] {
      result = check_point_view<Num>(sections->view(), kInPorts, kPriorities,
                                     0, c.in_port, c.priority, arrival);
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

}  // namespace
}  // namespace rtcac
