// SwitchCac::rekey, the in-place rebind behind every MODIFY, renegotiate
// and reroute (PathEvaluator::rebind_hops).  It must leave exactly the
// state remove(from) + add(to, <the same stream>) leaves — same verdicts,
// same bounds bit for bit, same membership order, same leases — while
// touching neither the merge tree nor a derived cache.  Every property
// runs for both scalar instantiations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "core/switch_cac.h"
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

/// A three-step VBR-shaped stream with rates on a 1/105 grid: not
/// dyadic, so a double fold's last bits depend on the order of its terms
/// and a changed membership order shows in the from-scratch bounds.
template <typename Num>
BasicBitStream<Num> vbr_stream(Xorshift& rng) {
  using Seg = BasicSegment<Num>;
  const auto peak = static_cast<std::int64_t>(4 + rng.below(12));
  const auto mid = static_cast<std::int64_t>(
      2 + rng.below(static_cast<std::uint64_t>(peak - 2)));
  const auto tail = static_cast<std::int64_t>(
      1 + rng.below(static_cast<std::uint64_t>(std::min<std::int64_t>(mid, 3))));
  const auto burst = static_cast<std::int64_t>(1 + rng.below(24));
  return BasicBitStream<Num>{Seg{ratio<Num>(peak, 105), Num(0)},
                             Seg{ratio<Num>(mid, 105), Num(burst)},
                             Seg{ratio<Num>(tail, 105), Num(burst + 8)}};
}

template <typename Num>
typename BasicSwitchCac<Num>::Config small_config() {
  typename BasicSwitchCac<Num>::Config cfg;
  cfg.in_ports = 2;
  cfg.out_ports = 2;
  cfg.priorities = 2;
  cfg.advertised_bound = Num(40);
  return cfg;
}

struct Placement {
  std::size_t in_port;
  std::size_t out_port;
  Priority priority;
};

template <typename Num>
class SwitchRekey : public ::testing::Test {};

using Scalars = ::testing::Types<double, Rational>;
TYPED_TEST_SUITE(SwitchRekey, Scalars);

TYPED_TEST(SwitchRekey, LeavesTreeCachesAndDirtyFlagsUntouched) {
  using Num = TypeParam;
  BasicSwitchCac<Num> cac(small_config<Num>());
  Xorshift rng(3);
  for (ConnectionId id = 1; id <= 6; ++id) {
    cac.add(id, id % 2, 0, static_cast<Priority>(id % 2 == 0 ? 0 : 1),
            vbr_stream<Num>(rng));
  }
  // The provisional reservation sits between older and newer members.
  cac.add(100, 1, 0, 1, vbr_stream<Num>(rng), 50.0);
  cac.add(7, 1, 0, 1, vbr_stream<Num>(rng));
  cac.prime_caches();
  const auto* block = cac.arrival_aggregate(1, 0, 1).segments().data();
  const auto bound = cac.computed_bound(0, 1);

  cac.rekey(100, 8, 1, 0, 1);

  EXPECT_TRUE(cac.dirty_queue_keys().empty());
  EXPECT_EQ(cac.arrival_aggregate(1, 0, 1).segments().data(), block);
  EXPECT_EQ(cac.computed_bound(0, 1), bound);
  EXPECT_FALSE(cac.contains(100));
  EXPECT_TRUE(cac.contains(8));
  EXPECT_EQ(cac.connection_count(), 8u);
  EXPECT_TRUE(cac.state_consistent());
  EXPECT_TRUE(cac.bandwidth_conserved());
  EXPECT_TRUE(cac.cache_coherent());
}

/// Every seeded check and from-scratch check agree bitwise — verdict,
/// bound at the priority, every gated level's bound and the reason.
template <typename Num>
void expect_same_decisions(const BasicSwitchCac<Num>& a,
                           const BasicSwitchCac<Num>& b, Xorshift& rng) {
  for (std::size_t in = 0; in < a.in_ports(); ++in) {
    for (std::size_t out = 0; out < a.out_ports(); ++out) {
      for (Priority p = 0; p < a.priorities(); ++p) {
        const BasicBitStream<Num> candidate = vbr_stream<Num>(rng);
        const auto fast_a = a.check(in, out, p, candidate);
        const auto fast_b = b.check(in, out, p, candidate);
        EXPECT_EQ(fast_a.admitted, fast_b.admitted);
        EXPECT_EQ(fast_a.bound_at_priority, fast_b.bound_at_priority);
        EXPECT_EQ(fast_a.bounds, fast_b.bounds);
        EXPECT_EQ(fast_a.reason, fast_b.reason);
        const auto slow_a = a.check_from_scratch(in, out, p, candidate);
        const auto slow_b = b.check_from_scratch(in, out, p, candidate);
        EXPECT_EQ(slow_a.admitted, slow_b.admitted);
        EXPECT_EQ(slow_a.bound_at_priority, slow_b.bound_at_priority);
        EXPECT_EQ(slow_a.bounds, slow_b.bounds);
        EXPECT_EQ(slow_a.reason, slow_b.reason);
      }
      for (Priority p = 0; p < a.priorities(); ++p) {
        EXPECT_EQ(a.connection_ids(out, p), b.connection_ids(out, p));
        EXPECT_EQ(a.computed_bound(out, p), b.computed_bound(out, p));
      }
    }
  }
  EXPECT_EQ(a.connection_ids(), b.connection_ids());
}

// Two copies of one switch run the same MODIFY-shaped rounds: commit a
// provisional reservation (sometimes followed by a newer member in the
// same cell), release the old one, then rebind — by remove + add on the
// first copy and by rekey on the second.
TYPED_TEST(SwitchRekey, MatchesRemoveThenAddOnATwinSwitch) {
  using Num = TypeParam;
  BasicSwitchCac<Num> by_remove_add(small_config<Num>());
  BasicSwitchCac<Num> by_rekey(small_config<Num>());
  Xorshift rng(11);
  Xorshift check_rng(12);
  std::map<ConnectionId, Placement> live;
  const auto place = [&] {
    return Placement{rng.below(2), rng.below(2),
                     static_cast<Priority>(rng.below(2))};
  };
  const auto add_both = [&](ConnectionId id, const Placement& at,
                            const BasicBitStream<Num>& s, double lease) {
    by_remove_add.add(id, at.in_port, at.out_port, at.priority, s, lease);
    by_rekey.add(id, at.in_port, at.out_port, at.priority, s, lease);
  };
  ConnectionId next = 1;
  for (int i = 0; i < 24; ++i) {
    const Placement at = place();
    add_both(next, at, vbr_stream<Num>(rng),
             BasicSwitchCac<Num>::kPermanentLease);
    live.emplace(next++, at);
  }
  for (int round = 0; round < 40; ++round) {
    auto pick = live.begin();
    std::advance(pick, static_cast<std::ptrdiff_t>(rng.below(live.size())));
    const ConnectionId id = pick->first;
    const ConnectionId provisional = next++;
    const Placement at = place();
    const BasicBitStream<Num> stream = vbr_stream<Num>(rng);
    add_both(provisional, at, stream, 1000.0 + round);
    if (rng.below(2) == 0) {
      add_both(next, at, vbr_stream<Num>(rng),
               BasicSwitchCac<Num>::kPermanentLease);
      live.emplace(next++, at);
    }
    ASSERT_TRUE(by_remove_add.remove(id));
    ASSERT_TRUE(by_rekey.remove(id));
    const double lease = round % 3 == 0 ? 2000.0 + round
                                        : BasicSwitchCac<Num>::kPermanentLease;
    ASSERT_TRUE(by_remove_add.remove(provisional));
    by_remove_add.add(id, at.in_port, at.out_port, at.priority, stream, lease);
    by_rekey.rekey(provisional, id, at.in_port, at.out_port, at.priority,
                   lease);
    live[id] = at;
    EXPECT_EQ(by_rekey.lease_expiry(id), by_remove_add.lease_expiry(id));
    expect_same_decisions(by_remove_add, by_rekey, check_rng);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "round " << round;
  }
  EXPECT_TRUE(by_rekey.state_consistent());
  EXPECT_TRUE(by_rekey.bandwidth_conserved());
  EXPECT_TRUE(by_rekey.cache_coherent());
  // Both copies reclaim the same finite leases.
  EXPECT_EQ(by_rekey.reclaim(1e9), by_remove_add.reclaim(1e9));
  expect_same_decisions(by_remove_add, by_rekey, check_rng);
}

TYPED_TEST(SwitchRekey, ContractErrorsThrowAndChangeNothing) {
  using Num = TypeParam;
  BasicSwitchCac<Num> cac(small_config<Num>());
  Xorshift rng(5);
  cac.add(1, 0, 1, 1, vbr_stream<Num>(rng));
  cac.add(2, 1, 1, 0, vbr_stream<Num>(rng));
  EXPECT_THROW(cac.rekey(9, 3, 0, 1, 1), std::invalid_argument);  // unknown
  EXPECT_THROW(cac.rekey(1, 2, 0, 1, 1), std::invalid_argument);  // taken
  EXPECT_THROW(cac.rekey(1, 1, 0, 1, 1), std::invalid_argument);  // itself
  EXPECT_THROW(cac.rekey(1, 3, 1, 1, 1), std::invalid_argument);  // in-port
  EXPECT_THROW(cac.rekey(1, 3, 0, 0, 1), std::invalid_argument);  // out-port
  EXPECT_THROW(cac.rekey(1, 3, 0, 1, 0), std::invalid_argument);  // priority
  EXPECT_EQ(cac.connection_ids(), (std::vector<ConnectionId>{1, 2}));
  EXPECT_EQ(cac.connection_ids(1, 1), (std::vector<ConnectionId>{1}));
  EXPECT_TRUE(cac.state_consistent());
}

TYPED_TEST(SwitchRekey, MovesTheLease) {
  using Num = TypeParam;
  constexpr double kPermanent = BasicSwitchCac<Num>::kPermanentLease;
  BasicSwitchCac<Num> cac(small_config<Num>());
  Xorshift rng(9);
  // Finite onto permanent: nothing is left for reclaim.
  cac.add(10, 0, 0, 0, vbr_stream<Num>(rng), 30.0);
  cac.rekey(10, 1, 0, 0, 0);
  EXPECT_EQ(cac.lease_expiry(1), kPermanent);
  EXPECT_TRUE(cac.reclaim(1e12).empty());
  EXPECT_TRUE(cac.contains(1));
  // Permanent onto finite: reclaimed at expiry under the new id.
  cac.rekey(1, 2, 0, 0, 0, 60.0);
  EXPECT_TRUE(cac.reclaim(59.0).empty());
  EXPECT_EQ(cac.reclaim(60.0), (std::vector<ConnectionId>{2}));
  EXPECT_EQ(cac.connection_count(), 0u);
  // Finite onto finite: the old expiry no longer reclaims anything.
  cac.add(20, 1, 1, 1, vbr_stream<Num>(rng), 40.0);
  cac.rekey(20, 3, 1, 1, 1, 80.0);
  EXPECT_TRUE(cac.reclaim(40.0).empty());
  EXPECT_EQ(cac.reclaim(80.0), (std::vector<ConnectionId>{3}));
  EXPECT_TRUE(cac.state_consistent());
}

TYPED_TEST(SwitchRekey, ConnectionIdsStayAscendingAfterRekeysToLowerIds) {
  using Num = TypeParam;
  BasicSwitchCac<Num> cac(small_config<Num>());
  Xorshift rng(13);
  for (ConnectionId id = 100; id < 112; ++id) {
    cac.add(id, id % 2, 0, 0, vbr_stream<Num>(rng));
  }
  cac.rekey(111, 7, 1, 0, 0);
  cac.rekey(104, 3, 0, 0, 0);
  cac.rekey(109, 50, 1, 0, 0);
  const std::vector<ConnectionId> want{3,   7,   50,  100, 101, 102,
                                       103, 105, 106, 107, 108, 110};
  EXPECT_EQ(cac.connection_ids(), want);
  EXPECT_EQ(cac.connection_ids(0, 0), want);
}

}  // namespace
}  // namespace rtcac
