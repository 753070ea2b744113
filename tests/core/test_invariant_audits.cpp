// Invariant-audit coverage: corrupt library state through the test-access
// friends and verify RTCAC_INVARIANT_AUDIT catches it on the next
// mutation.  These tests exercise the library as built, so they only run
// when the library compiled its audits in (Debug / RTCAC_AUDIT=ON builds)
// and responds to violations by throwing; elsewhere they skip.  The one
// exception, CorruptingOneCopyLeavesTheOthersIntact, checks the BitStream
// hook itself and needs no audits.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/bitstream.h"
#include "core/stream_ops.h"
#include "core/switch_cac.h"
#include "core/traffic.h"
#include "sim/event_queue.h"
#include "util/contract.h"

namespace rtcac {

// Friends of the library classes (declared in their headers); defined
// here so only the audit tests can reach internal state.
struct BitStreamTestAccess {
  /// Points `s` at a new block holding `segments`, unvalidated.  Streams
  /// share immutable blocks, so this corrupts `s` alone: every other copy
  /// keeps the block it had.
  template <typename Num>
  static void replace_segments(BasicBitStream<Num>& s,
                               std::span<const BasicSegment<Num>> segments) {
    s.store(segments);
  }
};

struct SwitchCacTestAccess {
  template <typename Num>
  static std::vector<BasicBitStream<Num>>& arrival_aggregates(
      BasicSwitchCac<Num>& cac) {
    return cac.arrival_aggr_;
  }
  template <typename Num>
  static std::vector<BasicBitStream<Num>>& offered_cache(
      BasicSwitchCac<Num>& cac) {
    return cac.offered_cache_;
  }
  template <typename Num>
  static std::size_t queue_index(const BasicSwitchCac<Num>& cac,
                                 std::size_t out_port, Priority priority) {
    return cac.queue_index(out_port, priority);
  }
};

namespace {

#define RTCAC_SKIP_UNLESS_THROWING_AUDITS()                              \
  do {                                                                   \
    if (!audits_enabled() || library_contract_mode() != 1) {             \
      GTEST_SKIP() << "library built without throwing invariant audits"; \
    }                                                                    \
  } while (false)

/// `s` with a segment of *higher* rate than its last appended, behind the
/// constructor's back.
BitStream break_monotonicity(const BitStream& s) {
  std::vector<Segment> segs(s.segments().begin(), s.segments().end());
  segs.push_back(Segment{segs.back().rate + 10.0, segs.back().start + 5.0});
  BitStream corrupted = s;
  BitStreamTestAccess::replace_segments<double>(corrupted, segs);
  return corrupted;
}

TEST(InvariantAudit, CorruptedBitStreamIsCaughtByTransforms) {
  RTCAC_SKIP_UNLESS_THROWING_AUDITS();
  const BitStream s = TrafficDescriptor::cbr(0.5).to_bitstream();
  ASSERT_TRUE(s.invariants_hold());
  const BitStream corrupted = break_monotonicity(s);
  ASSERT_FALSE(corrupted.invariants_hold());
  EXPECT_THROW(static_cast<void>(multiplex(corrupted, corrupted)),
               ContractViolation);
  // The stream it was copied from still passes every audit.
  EXPECT_TRUE(s.invariants_hold());
  EXPECT_NO_THROW(static_cast<void>(multiplex(s, s)));
}

// Copies share one immutable block; corrupting one copy (the only way to
// reach a stream's storage) replaces its handle and leaves every other
// copy valid.  Needs no audits, so it runs in every build.
TEST(InvariantAudit, CorruptingOneCopyLeavesTheOthersIntact) {
  const BitStream original =
      TrafficDescriptor::vbr(0.8, 0.2, 12).to_bitstream();
  const BitStream sharer = original;
  ASSERT_EQ(sharer.segments().data(), original.segments().data());
  const BitStream corrupted = break_monotonicity(sharer);
  ASSERT_FALSE(corrupted.invariants_hold());
  EXPECT_NE(corrupted.segments().data(), original.segments().data());
  EXPECT_TRUE(original.invariants_hold());
  EXPECT_TRUE(sharer.invariants_hold());
  EXPECT_EQ(sharer.segments().data(), original.segments().data());
  EXPECT_EQ(sharer, TrafficDescriptor::vbr(0.8, 0.2, 12).to_bitstream());
}

TEST(InvariantAudit, SwitchCacBandwidthConservationIsAudited) {
  RTCAC_SKIP_UNLESS_THROWING_AUDITS();
  SwitchCac::Config cfg;
  cfg.in_ports = 2;
  cfg.out_ports = 2;
  cfg.priorities = 1;
  SwitchCac cac(cfg);
  const BitStream s = TrafficDescriptor::cbr(0.3).to_bitstream();
  cac.add(1, 0, 0, 0, s);
  ASSERT_TRUE(cac.bandwidth_conserved());

  // Inject phantom bandwidth into one S_ia cell without a matching
  // connection record; the next mutation's audit must notice.
  auto& cells = SwitchCacTestAccess::arrival_aggregates(cac);
  cells[0] = multiplex(cells[0], TrafficDescriptor::cbr(0.2).to_bitstream());
  ASSERT_FALSE(cac.bandwidth_conserved());
  EXPECT_THROW(cac.add(2, 1, 1, 0, s), ContractViolation);
}

TEST(InvariantAudit, SwitchCacStateConsistencyIsAudited) {
  RTCAC_SKIP_UNLESS_THROWING_AUDITS();
  SwitchCac::Config cfg;
  cfg.in_ports = 2;
  cfg.out_ports = 1;
  cfg.priorities = 1;
  SwitchCac cac(cfg);
  const BitStream s = TrafficDescriptor::cbr(0.25).to_bitstream();
  cac.add(7, 0, 0, 0, s);
  cac.add(8, 1, 0, 0, s);
  // Zero out connection 8's cached aggregate while its record remains.
  // remove(7) repairs only connection 7's cell (it rebuilds from the
  // records), so the post-mutation audit must flag the other cell.
  auto& cells = SwitchCacTestAccess::arrival_aggregates(cac);
  for (auto& cell : cells) {
    if (!cell.is_zero()) cell = BitStream{};
  }
  ASSERT_FALSE(cac.state_consistent());
  EXPECT_THROW(static_cast<void>(cac.remove(7)), ContractViolation);
}

TEST(InvariantAudit, SwitchCacCacheCoherenceIsAudited) {
  RTCAC_SKIP_UNLESS_THROWING_AUDITS();
  SwitchCac::Config cfg;
  cfg.in_ports = 2;
  cfg.out_ports = 2;
  cfg.priorities = 2;
  SwitchCac cac(cfg);
  const BitStream s = TrafficDescriptor::cbr(0.3).to_bitstream();
  cac.add(1, 0, 0, 0, s);
  cac.add(2, 0, 1, 0, s);
  // Warm the out-port-1 caches, then corrupt the cached offered
  // aggregate there.  A mutation at out-port 0 invalidates only its own
  // port's entries, so the corrupted entry stays marked clean and the
  // post-mutation coherence audit must flag it.
  ASSERT_TRUE(cac.computed_bound(1, 0).has_value());
  ASSERT_TRUE(cac.cache_coherent());
  auto& offered = SwitchCacTestAccess::offered_cache(cac);
  const std::size_t q = SwitchCacTestAccess::queue_index(cac, 1, 0);
  offered[q] =
      multiplex(offered[q], TrafficDescriptor::cbr(0.2).to_bitstream());
  ASSERT_FALSE(cac.cache_coherent());
  EXPECT_THROW(cac.add(3, 1, 0, 0, s), ContractViolation);
}

TEST(InvariantAudit, EventQueuePopMonotonicityIsAudited) {
  RTCAC_SKIP_UNLESS_THROWING_AUDITS();
  EventQueue q;
  q.schedule(10, EventPhase::kArrival, [] {});
  EXPECT_EQ(q.run_next(), 10);
  EXPECT_EQ(q.last_popped(), 10);
  // Scheduling into the simulated past is a harness bug (Simulator
  // guards it); the queue's own audit is the last line of defense.
  q.schedule(5, EventPhase::kArrival, [] {});
  EXPECT_THROW(static_cast<void>(q.run_next()), ContractViolation);
}

TEST(InvariantAudit, HealthyWorkloadsPassAudits) {
  // A mixed add/remove workload runs clean under full auditing — the
  // audits reject corruption, not legitimate state.
  SwitchCac::Config cfg;
  cfg.in_ports = 3;
  cfg.out_ports = 2;
  cfg.priorities = 2;
  SwitchCac cac(cfg);
  const BitStream a = TrafficDescriptor::cbr(0.2).to_bitstream();
  const BitStream b = TrafficDescriptor::cbr(0.1).to_bitstream();
  cac.add(1, 0, 0, 0, a);
  cac.add(2, 1, 0, 1, b);
  cac.add(3, 2, 1, 0, a);
  EXPECT_TRUE(cac.remove(2));
  cac.add(4, 1, 1, 1, b);
  EXPECT_TRUE(cac.remove(1));
  EXPECT_TRUE(cac.bandwidth_conserved());
  EXPECT_TRUE(cac.state_consistent());
  EXPECT_TRUE(cac.cache_coherent());
}

}  // namespace
}  // namespace rtcac
