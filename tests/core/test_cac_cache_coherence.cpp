// Cache-coherence property suite for the SwitchCac admission hot path:
// randomized seeded add/remove/reclaim interleavings must keep the cached
// check() in agreement with check_from_scratch() (the frozen
// pre-optimization fold), keep every derived-stream cache coherent with
// its inputs, keep computed_bound() of every queue equal to a bound
// folded from scratch out of the live connections, and keep the batched
// reclaim() equivalent to removing the expired ids one at a time.  The
// Rational instantiation pins the equivalences exactly; the double one
// within NumTraits tolerance.
//
// The wide-switch cases also run with traffic on only a few in-ports, the
// shape the live in-port lists serve (a check, fill or export merges only
// the in-ports on them): every mutator drives the lists, and candidates
// land on a dead in-port and at both ends of the in-port range.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
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
Num ratio(std::int64_t num, std::int64_t den) {
  if constexpr (NumTraits<Num>::kExact) {
    return Num(num, den);
  } else {
    return static_cast<double>(num) / static_cast<double>(den);
  }
}

/// A peak-then-sustained stream on a dyadic grid (peak k/64, sustained
/// 1/8 to 1/2 of it, burst end at an integer), exact in both scalars.
template <typename Num>
BasicBitStream<Num> two_step_arrival(Xorshift& rng) {
  using Seg = BasicSegment<Num>;
  const auto peak = static_cast<std::int64_t>(1 + rng.below(8));
  const auto share = static_cast<std::int64_t>(1 + rng.below(4));
  const auto burst = static_cast<std::int64_t>(1 + rng.below(64));
  return BasicBitStream<Num>{Seg{ratio<Num>(peak, 64), Num(0)},
                             Seg{ratio<Num>(peak * share, 512), Num(burst)}};
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

/// The cached check against check_from_scratch: bit for bit (bounds and
/// reason) for the exact scalar, as expect_same_decision for double.
template <typename Num>
void expect_check_matches_scratch(const BasicSwitchCac<Num>& cac,
                                  std::size_t in, std::size_t out,
                                  Priority prio,
                                  const BasicBitStream<Num>& arrival) {
  const auto fast = cac.check(in, out, prio, arrival);
  const auto slow = cac.check_from_scratch(in, out, prio, arrival);
  if constexpr (NumTraits<Num>::kExact) {
    ASSERT_EQ(fast.admitted, slow.admitted) << "in-port " << in;
    ASSERT_EQ(fast.reason, slow.reason) << "in-port " << in;
    ASSERT_EQ(fast.bounds, slow.bounds) << "in-port " << in;
  } else {
    expect_same_decision(fast, slow);
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

/// Traffic on 3 to 5 in-ports of a wide switch, as an RTnet switch (paper
/// §5: 19 in-ports) feeds each queue from a few, driven by add, remove,
/// rekey, reclaim and remove_many.  Before every step the cached check
/// must agree with check_from_scratch for candidates at a dead in-port,
/// at in-ports 0 and in_ports - 1 (each active on a coin flip, so the
/// trial stream lands on the list, before it or after it) and at an
/// active in-port.  Out-port 1 never carries the lowest priority, so a
/// candidate there above it finds that level idle.  After every step
/// the audits hold, and a primed copy keeps no dirty entry.
template <typename Num>
void sparse_churn_matches_from_scratch(
    std::uint64_t seed, const typename BasicSwitchCac<Num>::Config& cfg) {
  ASSERT_GE(cfg.in_ports, 8u);
  ASSERT_GE(cfg.priorities, 2u);
  Xorshift rng(seed * 7919 + 17);
  BasicSwitchCac<Num> cac(cfg);
  const std::size_t last = cfg.in_ports - 1;
  std::vector<std::size_t> active;
  if (rng.chance(0.5)) active.push_back(0);
  if (rng.chance(0.5)) active.push_back(last);
  const std::size_t want = 3 + rng.below(3);
  while (active.size() < want) {
    const std::size_t in = 1 + rng.below(last - 1);
    if (std::find(active.begin(), active.end(), in) == active.end()) {
      active.push_back(in);
    }
  }
  std::vector<std::size_t> dead;
  for (std::size_t in = 0; in < cfg.in_ports; ++in) {
    if (std::find(active.begin(), active.end(), in) == active.end()) {
      dead.push_back(in);
    }
  }

  struct Placement {
    std::size_t in;
    std::size_t out;
    Priority prio;
  };
  std::map<ConnectionId, Placement> live;
  const auto pick = [&] {
    auto it = live.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.below(live.size())));
    return it->first;
  };
  const auto lease = [&](double now) {
    return rng.chance(0.3) ? now + static_cast<double>(rng.below(20))
                           : BasicSwitchCac<Num>::kPermanentLease;
  };
  ConnectionId next_id = 1;
  double now = 0.0;
  for (int step = 0; step < 40; ++step) {
    const BasicBitStream<Num> arrival = two_step_arrival<Num>(rng);
    const std::size_t out = rng.below(cfg.out_ports);
    const auto prio = static_cast<Priority>(rng.below(cfg.priorities));
    for (const std::size_t in : {dead[rng.below(dead.size())], std::size_t{0},
                                 last, active[rng.below(active.size())]}) {
      expect_check_matches_scratch(cac, in, out, prio, arrival);
    }

    const std::uint64_t action = rng.below(10);
    if (action < 5 || live.empty()) {
      const Placement at{active[rng.below(active.size())], out,
                         out == 1 ? static_cast<Priority>(
                                        rng.below(cfg.priorities - 1))
                                  : prio};
      cac.add(next_id, at.in, at.out, at.prio, arrival, lease(now));
      live.emplace(next_id++, at);
    } else if (action < 7) {
      const ConnectionId victim = pick();
      EXPECT_TRUE(cac.remove(victim));
      live.erase(victim);
    } else if (action == 7) {
      const ConnectionId from = pick();
      const Placement at = live.at(from);
      cac.rekey(from, next_id, at.in, at.out, at.prio, lease(now));
      live.erase(from);
      live.emplace(next_id++, at);
    } else if (action == 8) {
      now += static_cast<double>(rng.below(15));
      for (const ConnectionId id : cac.reclaim(now)) live.erase(id);
    } else {
      // A few known ids, one of them twice, and one unknown id.
      std::vector<ConnectionId> ids{pick(), pick(), next_id + 1000};
      ids.push_back(ids.front());
      std::vector<ConnectionId> known(ids.begin(), ids.begin() + 2);
      std::sort(known.begin(), known.end());
      known.erase(std::unique(known.begin(), known.end()), known.end());
      EXPECT_EQ(cac.remove_many(ids), known.size());
      for (const ConnectionId id : known) live.erase(id);
    }
    ASSERT_EQ(cac.connection_count(), live.size());
    ASSERT_TRUE(cac.state_consistent());
    ASSERT_TRUE(cac.cache_coherent());
    const BasicSwitchCac<Num> primed = cac;
    primed.prime_caches();
    ASSERT_TRUE(primed.dirty_queue_keys().empty());
    ASSERT_TRUE(primed.cache_coherent());
  }
  for (const std::size_t in : dead) {
    for (std::size_t j = 0; j < cfg.out_ports; ++j) {
      EXPECT_TRUE(cac.arrival_aggregate(in, j, 0).is_zero());
    }
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
  sparse_churn_matches_from_scratch<double>(GetParam(), cfg);
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
  sparse_churn_matches_from_scratch<Rational>(GetParam(), cfg);
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
