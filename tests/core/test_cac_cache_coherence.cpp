// Cache-coherence property suite for the SwitchCac admission hot path:
// randomized seeded add/remove/reclaim interleavings must keep the cached
// check() in agreement with check_from_scratch() (the frozen
// pre-optimization fold), keep every derived-stream cache coherent with
// its inputs, keep computed_bound() of every queue equal to a bound
// folded from scratch out of the live connections, and keep the batched
// reclaim() equivalent to removing the expired ids one at a time.  The
// Rational instantiation pins the equivalences exactly; the double one
// within NumTraits tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/stream_ops.h"
#include "core/switch_cac.h"
#include "core/traffic.h"
#include "util/xorshift.h"

namespace rtcac {
namespace {

BitStream random_arrival(Xorshift& rng) {
  // Rates quantized to 1/64 keep the double algebra exact enough that
  // fold and k-way aggregates agree bitwise (see test_multiplex_all).
  const double pcr =
      static_cast<double>(1 + rng.below(16)) / 64.0;          // <= 0.25
  const double scr = pcr * static_cast<double>(1 + rng.below(4)) / 4.0;
  const auto mbs = static_cast<std::uint32_t>(1 + rng.below(8));
  return TrafficDescriptor::vbr(pcr, scr, mbs).to_bitstream();
}

// A long step stream: 64+ segments with rates on a 1/4096 grid, peak
// <= 1/16, so aggregates and scratch buffers grow past 64 segments.
BitStream long_arrival(Xorshift& rng) {
  std::vector<double> rates;
  for (int i = 0; i < 72; ++i) {
    rates.push_back(static_cast<double>(1 + rng.below(256)) / 4096.0);
  }
  std::sort(rates.rbegin(), rates.rend());
  std::vector<Segment> segs;
  double t = 0;
  for (const double r : rates) {
    segs.push_back(Segment{r, t});
    t += 0.5 * static_cast<double>(1 + rng.below(8));
  }
  return BitStream(std::move(segs));
}

template <typename Num>
void expect_same_decision(
    const BasicSwitchCheckResult<Num>& fast,
    const BasicSwitchCheckResult<Num>& slow) {
  ASSERT_EQ(fast.admitted, slow.admitted)
      << "cached: " << fast.reason << " / scratch: " << slow.reason;
  ASSERT_EQ(fast.bounds.size(), slow.bounds.size());
  for (std::size_t q = 0; q < fast.bounds.size(); ++q) {
    ASSERT_EQ(fast.bounds[q].has_value(), slow.bounds[q].has_value());
    if (fast.bounds[q].has_value()) {
      EXPECT_TRUE(
          NumTraits<Num>::nearly_equal(*fast.bounds[q], *slow.bounds[q]))
          << "priority " << q;
    }
  }
}

/// One committed connection, as the churn tests remember it.
template <typename Num>
struct Member {
  std::size_t in;
  std::size_t out;
  Priority prio;
  BasicBitStream<Num> arrival;
};

template <typename Num>
using Members = std::map<ConnectionId, Member<Num>>;

/// D'(j, q) over the committed set, folded from scratch out of the
/// connections' own streams with two-way multiplex and the reference
/// bound scan: no cache, no merge tree, no k-way kernel.  The check
/// computes only the levels at and below a candidate's priority, so this
/// is the oracle for the bound cache behind computed_bound().
template <typename Num>
std::optional<Num> bound_from_scratch(const Members<Num>& members,
                                      std::size_t in_ports, std::size_t out,
                                      Priority q) {
  using Stream = BasicBitStream<Num>;
  const auto cell = [&](std::size_t in, Priority p) {
    Stream aggr;
    for (const auto& [id, m] : members) {
      if (m.in == in && m.out == out && m.prio == p) {
        aggr = multiplex(aggr, m.arrival);
      }
    }
    return aggr;
  };
  Stream offered;
  Stream hp;
  for (std::size_t in = 0; in < in_ports; ++in) {
    offered = multiplex(offered, filter(cell(in, q)));
    Stream higher;
    for (Priority p = 0; p < q; ++p) higher = multiplex(higher, cell(in, p));
    hp = multiplex(hp, filter(higher));
  }
  return delay_bound_reference(offered, filter(hp));
}

/// computed_bound() of every queue against bound_from_scratch.  Runs on a
/// copy, so the switch under test keeps its dirty caches for the next
/// check.
template <typename Num>
void expect_bounds_match_scratch(const BasicSwitchCac<Num>& cac,
                                 const Members<Num>& members) {
  const BasicSwitchCac<Num> probe = cac;
  for (std::size_t j = 0; j < cac.out_ports(); ++j) {
    for (Priority q = 0; q < cac.priorities(); ++q) {
      const std::optional<Num> got = probe.computed_bound(j, q);
      const std::optional<Num> want =
          bound_from_scratch(members, cac.in_ports(), j, q);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "out " << j << " priority " << q;
      if (got.has_value()) {
        if constexpr (NumTraits<Num>::kExact) {
          EXPECT_EQ(*got, *want) << "out " << j << " priority " << q;
        } else {
          EXPECT_TRUE(NumTraits<Num>::nearly_equal(*got, *want))
              << "out " << j << " priority " << q << ": " << *got << " vs "
              << *want;
        }
      }
    }
  }
}

class CacheCoherenceTest : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, CacheCoherenceTest,
                         ::testing::Range<std::uint64_t>(0, 12));

// Seeded add/remove/reclaim churn; before every step the cached check
// must agree with check_from_scratch.  With `standing` set, every in-port
// first gets one small connection per priority at out-port 0, so each
// merge there has one non-zero input per in-port, and one arrival in
// four is a long (64+ segment) stream.
void churn_check_matches_from_scratch(std::uint64_t seed,
                                      const SwitchCac::Config& cfg,
                                      bool standing) {
  Xorshift rng(seed * 1000003 + 1);
  SwitchCac cac(cfg);

  std::vector<ConnectionId> live;
  Members<double> members;
  ConnectionId next_id = 1;
  if (standing) {
    const BitStream small =
        TrafficDescriptor::vbr(1.0 / 64, 1.0 / 1024, 4).to_bitstream();
    for (std::size_t in = 0; in < cfg.in_ports; ++in) {
      for (Priority p = 0; p < cfg.priorities; ++p) {
        cac.add(next_id, in, 0, p, small);
        members.emplace(next_id, Member<double>{in, 0, p, small});
        live.push_back(next_id++);
      }
    }
  }
  double now = 0.0;
  for (int step = 0; step < 60; ++step) {
    const std::size_t in = rng.below(cfg.in_ports);
    const std::size_t out = rng.below(cfg.out_ports);
    const auto prio = static_cast<Priority>(rng.below(cfg.priorities));
    const BitStream arrival = standing && rng.below(4) == 0
                                  ? long_arrival(rng)
                                  : random_arrival(rng);

    // Every step: the cached trial must agree with the from-scratch one.
    expect_same_decision(cac.check(in, out, prio, arrival),
                         cac.check_from_scratch(in, out, prio, arrival));

    const std::uint64_t action = rng.below(10);
    if (action < 6 || live.empty()) {
      const double lease = rng.chance(0.3)
                               ? now + static_cast<double>(rng.below(20))
                               : SwitchCac::kPermanentLease;
      cac.add(next_id, in, out, prio, arrival, lease);
      members.emplace(next_id, Member<double>{in, out, prio, arrival});
      live.push_back(next_id++);
    } else if (action < 8) {
      const std::size_t victim = rng.below(live.size());
      EXPECT_TRUE(cac.remove(live[victim]));
      members.erase(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      now += static_cast<double>(rng.below(15));
      const std::vector<ConnectionId> gone = cac.reclaim(now);
      EXPECT_TRUE(std::is_sorted(gone.begin(), gone.end()));
      for (const ConnectionId id : gone) {
        live.erase(std::find(live.begin(), live.end(), id));
        members.erase(id);
      }
    }
    ASSERT_TRUE(cac.state_consistent());
    ASSERT_TRUE(cac.cache_coherent());
    expect_bounds_match_scratch(cac, members);
  }
}

TEST_P(CacheCoherenceTest, CheckMatchesFromScratchUnderChurn) {
  SwitchCac::Config cfg;
  cfg.in_ports = 3;
  cfg.out_ports = 2;
  cfg.priorities = 3;
  cfg.advertised_bound = 256.0;
  churn_check_matches_from_scratch(GetParam(), cfg, false);
}

// 66 in-ports: every merge over in-ports has more inputs than a 64-entry
// cursor array holds.
TEST_P(CacheCoherenceTest, CheckMatchesFromScratchUnderChurnOnWideSwitch) {
  SwitchCac::Config cfg;
  cfg.in_ports = 66;
  cfg.out_ports = 2;
  cfg.priorities = 3;
  cfg.advertised_bound = 256.0;
  churn_check_matches_from_scratch(GetParam(), cfg, true);
}

TEST_P(CacheCoherenceTest, CachedBoundsMatchFreshTwin) {
  Xorshift rng(GetParam() * 7919 + 5);
  SwitchCac::Config cfg;
  cfg.in_ports = 2;
  cfg.out_ports = 2;
  cfg.priorities = 2;
  cfg.advertised_bound = 256.0;
  SwitchCac cac(cfg);

  struct Route {
    ConnectionId id;
    std::size_t in, out;
    Priority prio;
    BitStream arrival;
  };
  std::vector<Route> log;  // shadow of the live set, in insertion order
  ConnectionId next_id = 1;
  for (int step = 0; step < 40; ++step) {
    if (rng.below(3) != 0 || log.empty()) {
      Route r{next_id++, rng.below(cfg.in_ports), rng.below(cfg.out_ports),
              static_cast<Priority>(rng.below(cfg.priorities)),
              random_arrival(rng)};
      cac.add(r.id, r.in, r.out, r.prio, r.arrival);
      log.push_back(std::move(r));
    } else {
      const std::size_t victim = rng.below(log.size());
      EXPECT_TRUE(cac.remove(log[victim].id));
      log.erase(log.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    // A twin rebuilt cold from the shadow log shares no cache history
    // with the churned original, so agreement here means the warm caches
    // carry no stale state.  The log preserves relative insertion order
    // (erasures keep it), matching the original's membership index, so
    // the bounds must in fact agree bitwise — asserted within tolerance
    // to keep the test about coherence, not fp association trivia.
    SwitchCac twin(cfg);
    for (const Route& r : log) {
      twin.add(r.id, r.in, r.out, r.prio, r.arrival);
    }
    for (std::size_t j = 0; j < cfg.out_ports; ++j) {
      for (Priority p = 0; p < cfg.priorities; ++p) {
        const auto warm = cac.computed_bound(j, p);
        const auto cold = twin.computed_bound(j, p);
        ASSERT_EQ(warm.has_value(), cold.has_value());
        if (warm.has_value()) {
          EXPECT_TRUE(NumTraits<double>::nearly_equal(*warm, *cold))
              << "out " << j << " prio " << p << ": warm " << *warm
              << " vs cold " << *cold;
        }
        const auto wb = cac.buffer_requirement(j, p);
        const auto cb = twin.buffer_requirement(j, p);
        ASSERT_EQ(wb.has_value(), cb.has_value());
        if (wb.has_value()) {
          EXPECT_TRUE(NumTraits<double>::nearly_equal(*wb, *cb));
        }
      }
    }
  }
}

TEST_P(CacheCoherenceTest, BatchedReclaimEqualsPerIdRemoves) {
  Xorshift rng(GetParam() * 104729 + 9);
  SwitchCac::Config cfg;
  cfg.in_ports = 2;
  cfg.out_ports = 2;
  cfg.priorities = 2;
  cfg.advertised_bound = 256.0;
  SwitchCac batched(cfg);
  SwitchCac serial(cfg);

  for (ConnectionId id = 1; id <= 24; ++id) {
    const std::size_t in = rng.below(cfg.in_ports);
    const std::size_t out = rng.below(cfg.out_ports);
    const auto prio = static_cast<Priority>(rng.below(cfg.priorities));
    const BitStream arrival = random_arrival(rng);
    const double lease = rng.chance(0.6)
                             ? static_cast<double>(rng.below(50))
                             : SwitchCac::kPermanentLease;
    batched.add(id, in, out, prio, arrival, lease);
    serial.add(id, in, out, prio, arrival, lease);
  }

  const double now = 25.0;
  std::vector<ConnectionId> expect_expired;
  for (const ConnectionId id : serial.connection_ids()) {
    if (serial.lease_expiry(id) <= now) expect_expired.push_back(id);
  }
  const std::vector<ConnectionId> reclaimed = batched.reclaim(now);
  EXPECT_EQ(reclaimed, expect_expired);  // ascending, inclusive expiry
  for (const ConnectionId id : expect_expired) {
    EXPECT_TRUE(serial.remove(id));
  }

  EXPECT_EQ(batched.connection_ids(), serial.connection_ids());
  for (std::size_t j = 0; j < cfg.out_ports; ++j) {
    for (Priority p = 0; p < cfg.priorities; ++p) {
      EXPECT_EQ(batched.connection_ids(j, p), serial.connection_ids(j, p));
      EXPECT_EQ(batched.connection_count(j, p),
                serial.connection_count(j, p));
      const auto b1 = batched.computed_bound(j, p);
      const auto b2 = serial.computed_bound(j, p);
      ASSERT_EQ(b1.has_value(), b2.has_value());
      if (b1.has_value()) {
        EXPECT_TRUE(NumTraits<double>::nearly_equal(*b1, *b2));
      }
    }
  }
  EXPECT_TRUE(batched.state_consistent());
  EXPECT_TRUE(batched.cache_coherent());
}

// The Rational twin of the churn above: cached check and fold must agree
// bit for bit.  With `standing` set, every in-port first gets one small
// connection per priority at out-port 0.
void exact_check_matches_from_scratch(std::uint64_t seed,
                                      const ExactSwitchCac::Config& cfg,
                                      bool standing) {
  Xorshift rng(seed * 65537 + 13);
  ExactSwitchCac cac(cfg);

  std::vector<ConnectionId> live;
  Members<Rational> members;
  ConnectionId next_id = 1;
  if (standing) {
    for (std::size_t in = 0; in < cfg.in_ports; ++in) {
      for (Priority p = 0; p < cfg.priorities; ++p) {
        // Distinct burst ends per in-port: the aggregates over in-ports
        // carry 64+ breakpoints.
        const ExactBitStream small{
            ExactSegment{Rational(1, 64), Rational(0)},
            ExactSegment{Rational(1, 1024),
                         Rational(static_cast<std::int64_t>(2 + in))}};
        cac.add(next_id, in, 0, p, small);
        members.emplace(next_id, Member<Rational>{in, 0, p, small});
        live.push_back(next_id++);
      }
    }
  }
  for (int step = 0; step < 25; ++step) {
    const std::size_t in = rng.below(cfg.in_ports);
    const std::size_t out = rng.below(cfg.out_ports);
    const auto prio = static_cast<Priority>(rng.below(cfg.priorities));
    std::vector<ExactSegment> segs;
    const auto peak = Rational(static_cast<std::int64_t>(1 + rng.below(16)),
                               64);
    const auto sustained =
        peak * Rational(static_cast<std::int64_t>(1 + rng.below(4)), 4);
    segs.push_back(ExactSegment{peak, Rational(0)});
    segs.push_back(
        ExactSegment{sustained,
                     Rational(static_cast<std::int64_t>(1 + rng.below(64)))});
    const ExactBitStream arrival(std::move(segs));

    const auto fast = cac.check(in, out, prio, arrival);
    const auto slow = cac.check_from_scratch(in, out, prio, arrival);
    ASSERT_EQ(fast.admitted, slow.admitted);
    ASSERT_EQ(fast.reason, slow.reason);
    ASSERT_EQ(fast.bounds.size(), slow.bounds.size());
    for (std::size_t q = 0; q < fast.bounds.size(); ++q) {
      // Exact scalar: cached composition must equal the fold bit for bit.
      ASSERT_EQ(fast.bounds[q], slow.bounds[q]) << "priority " << q;
    }

    if (rng.below(3) != 0 || live.empty()) {
      cac.add(next_id, in, out, prio, arrival);
      members.emplace(next_id, Member<Rational>{in, out, prio, arrival});
      live.push_back(next_id++);
    } else {
      const std::size_t victim = rng.below(live.size());
      EXPECT_TRUE(cac.remove(live[victim]));
      members.erase(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    ASSERT_TRUE(cac.state_consistent());
    ASSERT_TRUE(cac.cache_coherent());
    expect_bounds_match_scratch(cac, members);
  }
}

TEST_P(CacheCoherenceTest, ExactInstantiationAgreesExactly) {
  ExactSwitchCac::Config cfg;
  cfg.in_ports = 2;
  cfg.out_ports = 2;
  cfg.priorities = 2;
  cfg.advertised_bound = Rational(256);
  exact_check_matches_from_scratch(GetParam(), cfg, false);
}

TEST_P(CacheCoherenceTest, ExactInstantiationAgreesExactlyOnWideSwitch) {
  ExactSwitchCac::Config cfg;
  cfg.in_ports = 66;
  cfg.out_ports = 2;
  cfg.priorities = 2;
  cfg.advertised_bound = Rational(256);
  exact_check_matches_from_scratch(GetParam(), cfg, true);
}

TEST(CacheCoherence, QueueIndexedQueriesMatchRecordScan) {
  SwitchCac::Config cfg;
  cfg.in_ports = 2;
  cfg.out_ports = 2;
  cfg.priorities = 2;
  SwitchCac cac(cfg);
  const BitStream s = TrafficDescriptor::cbr(0.125).to_bitstream();
  cac.add(5, 0, 1, 1, s);
  cac.add(2, 1, 1, 1, s);
  cac.add(9, 0, 0, 0, s);
  cac.add(4, 1, 1, 0, s);
  EXPECT_EQ(cac.connection_ids(1, 1), (std::vector<ConnectionId>{2, 5}));
  EXPECT_EQ(cac.connection_ids(0, 0), (std::vector<ConnectionId>{9}));
  EXPECT_EQ(cac.connection_ids(0, 1), std::vector<ConnectionId>{});
  EXPECT_EQ(cac.connection_count(1, 1), 2u);
  EXPECT_EQ(cac.connection_count(1, 0), 1u);
  EXPECT_TRUE(cac.remove(2));
  EXPECT_EQ(cac.connection_ids(1, 1), (std::vector<ConnectionId>{5}));
}

}  // namespace
}  // namespace rtcac
