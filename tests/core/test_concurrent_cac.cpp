// Unit tests for the sharded thread-safe CAC core (concurrent_cac.h):
// decision parity with the serial SwitchCac, two-phase commit safety
// under racing admits, all-or-nothing multi-hop commits, batched
// teardown equivalence, and a multi-threaded mixed-operation stress.
// The suite carries the "concurrency" ctest label so the tsan CI job
// re-runs it under ThreadSanitizer.

#include "core/concurrent_cac.h"

#include <gtest/gtest.h>

#include <any>
#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/traffic.h"
#include "util/thread_annotations.h"
#include "util/xorshift.h"

namespace rtcac {
namespace {

SwitchCac::Config shard_config(double bound = 64.0) {
  SwitchCac::Config cfg;
  cfg.in_ports = 4;
  cfg.out_ports = 2;
  cfg.priorities = 2;
  cfg.advertised_bound = bound;
  return cfg;
}

// Bursty VBR stream: nonzero backlog, so computed bounds actually move.
BitStream random_stream(Xorshift& rng) {
  const double scr = static_cast<double>(1 + rng.below(4)) / 256.0;
  const double pcr = scr * static_cast<double>(2 + rng.below(4));
  return TrafficDescriptor::vbr(pcr, scr,
                                static_cast<std::uint32_t>(2 + rng.below(14)))
      .to_bitstream();
}

struct Candidate {
  std::size_t in_port;
  std::size_t out_port;
  Priority priority;
  BitStream stream;
};

Candidate random_candidate(Xorshift& rng, const SwitchCac::Config& cfg) {
  return Candidate{rng.below(cfg.in_ports), rng.below(cfg.out_ports),
                   static_cast<Priority>(rng.below(cfg.priorities)),
                   random_stream(rng)};
}

TEST(ConcurrentCac, AdmitMatchesSerialCheckThenAdd) {
  const auto cfg = shard_config();
  ConcurrentCac cac({cfg});
  SwitchCac serial(cfg);
  Xorshift rng(1);
  for (ConnectionId id = 1; id <= 24; ++id) {
    const Candidate c = random_candidate(rng, cfg);
    const auto got =
        cac.admit(0, id, c.in_port, c.out_port, c.priority, c.stream);
    const auto want = serial.check(c.in_port, c.out_port, c.priority, c.stream);
    ASSERT_EQ(got.admitted, want.admitted) << "id " << id;
    EXPECT_EQ(got.reason, want.reason);
    if (want.admitted) {
      serial.add(id, c.in_port, c.out_port, c.priority, c.stream);
      EXPECT_TRUE(cac.contains(0, id));
    } else {
      EXPECT_FALSE(cac.contains(0, id));
    }
  }
  EXPECT_EQ(cac.connection_count(), serial.connection_count());
  for (std::size_t j = 0; j < cfg.out_ports; ++j) {
    for (Priority p = 0; p < cfg.priorities; ++p) {
      EXPECT_EQ(cac.computed_bound(0, j, p), serial.computed_bound(j, p));
      EXPECT_DOUBLE_EQ(cac.advertised(0, j, p), serial.advertised(j, p));
    }
  }
}

TEST(ConcurrentCac, ConcurrentSharedChecksMatchSerial) {
  const auto cfg = shard_config();
  ConcurrentCac cac({cfg});
  SwitchCac serial(cfg);
  Xorshift rng(2);
  for (ConnectionId id = 1; id <= 16; ++id) {
    const Candidate c = random_candidate(rng, cfg);
    if (cac.admit(0, id, c.in_port, c.out_port, c.priority, c.stream)
            .admitted) {
      serial.add(id, c.in_port, c.out_port, c.priority, c.stream);
    }
  }
  std::vector<Candidate> candidates;
  std::vector<SwitchCheckResult> expected;
  for (int i = 0; i < 16; ++i) {
    candidates.push_back(random_candidate(rng, cfg));
    const Candidate& c = candidates.back();
    expected.push_back(
        serial.check(c.in_port, c.out_port, c.priority, c.stream));
  }
  // Readers race each other on the shard's shared lock; the priming
  // invariant makes every check a pure read of clean caches, so all of
  // them must reproduce the serial verdicts and bounds exactly.
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 8; ++round) {
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          const Candidate& c = candidates[i];
          const auto got =
              cac.check(0, c.in_port, c.out_port, c.priority, c.stream);
          if (got.admitted != expected[i].admitted ||
              got.bound_at_priority != expected[i].bound_at_priority) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_TRUE(cac.cache_coherent());
}

TEST(ConcurrentCac, RacingAdmitsNeverOverAdmit) {
  SwitchCac::Config cfg;
  cfg.in_ports = 4;
  cfg.out_ports = 1;
  cfg.priorities = 1;
  cfg.advertised_bound = 24.0;
  ConcurrentCac cac({cfg});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 24;
  std::atomic<std::size_t> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xorshift rng(100 + static_cast<std::uint64_t>(t));
      for (int k = 0; k < kPerThread; ++k) {
        const ConnectionId id =
            static_cast<ConnectionId>(t * kPerThread + k + 1);
        const Candidate c = random_candidate(rng, cfg);
        // Two-phase: speculative check under the shared lock, then
        // admit() re-validates under the exclusive lock.  The
        // speculative verdict may be stale; the commit may not be.
        if (!cac.check(0, c.in_port, c.out_port, c.priority, c.stream)
                 .admitted) {
          continue;
        }
        if (cac.admit(0, id, c.in_port, c.out_port, c.priority, c.stream)
                .admitted) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Enough offered load to guarantee contention actually rejected some.
  EXPECT_GT(admitted.load(), 0u);
  EXPECT_LT(admitted.load(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(cac.connection_count(), admitted.load());
  EXPECT_TRUE(cac.state_consistent());
  EXPECT_TRUE(cac.bandwidth_conserved());
  EXPECT_TRUE(cac.cache_coherent());
  // The committed set must honor the advertised cap: no interleaving of
  // stale checks can have slipped an over-admission through.
  const auto bound = cac.computed_bound(0, 0, 0);
  ASSERT_TRUE(bound.has_value());
  EXPECT_LE(*bound, cfg.advertised_bound + 1e-9);
}

TEST(ConcurrentCac, AdmitPathCommitsAllOrNothing) {
  // Fill shard 1's queue until it rejects the hog stream, then drive a
  // path whose first hop (on the empty shard 0) would admit: the shard-1
  // rejection must leave shard 0 untouched.
  ConcurrentCac cac({shard_config(24.0), shard_config(24.0)});
  const BitStream hog =
      TrafficDescriptor::vbr(0.4, 0.1, 16).to_bitstream();
  // Alternate in_ports: per-input filtering caps any single input link
  // at the link rate, so a queue only backlogs when several inputs feed
  // it at once.
  std::size_t prefilled = 0;
  for (ConnectionId id = 100; id < 164; ++id) {
    if (!cac.admit(1, id, id % 2, 1, 0, hog).admitted) break;
    ++prefilled;
  }
  ASSERT_GT(prefilled, 0u);
  ASSERT_LT(prefilled, 64u) << "shard 1 never filled";
  const std::vector<ConcurrentCac::HopSpec> hops = {
      {.shard = 0, .in_port = 0, .out_port = 0, .priority = 0,
       .arrival = hog},
      {.shard = 1, .in_port = 1, .out_port = 1, .priority = 0,
       .arrival = hog},
  };
  const auto rejected = cac.admit_path(hops, 1);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.rejecting_hop, 1u);
  ASSERT_EQ(rejected.hops.size(), 2u);
  EXPECT_TRUE(rejected.hops[0].admitted);
  EXPECT_FALSE(rejected.hops[1].admitted);
  EXPECT_FALSE(cac.contains(0, 1));
  EXPECT_FALSE(cac.contains(1, 1));
  EXPECT_EQ(cac.connection_count(), prefilled);

  // Same path against a generous second shard commits on every hop.
  ConcurrentCac open(
      {shard_config(64.0), shard_config(64.0), shard_config(64.0)});
  std::vector<ConcurrentCac::HopSpec> wide = hops;
  wide.push_back({.shard = 2, .in_port = 2, .out_port = 0, .priority = 1,
                  .arrival = hog});
  const auto accepted = open.admit_path(wide, 7);
  EXPECT_TRUE(accepted.admitted);
  EXPECT_EQ(accepted.rejecting_hop, ConcurrentCac::PathResult::npos);
  EXPECT_EQ(accepted.hops.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) EXPECT_TRUE(open.contains(s, 7));
  EXPECT_EQ(open.connection_count(), 3u);  // hop reservations
  EXPECT_TRUE(open.state_consistent());
}

TEST(ConcurrentCac, AcceptancePredicateVetoesWithoutCommit) {
  ConcurrentCac cac({shard_config(), shard_config()});
  Xorshift rng(4);
  const BitStream stream = random_stream(rng);
  const std::vector<ConcurrentCac::HopSpec> hops = {
      {.shard = 0, .in_port = 0, .out_port = 0, .priority = 0,
       .arrival = stream},
      {.shard = 1, .in_port = 0, .out_port = 1, .priority = 0,
       .arrival = stream},
  };
  // Every hop admits, but the caller's end-to-end predicate (e.g. the
  // deadline test) says no: nothing may be committed, and the hop
  // results are still reported so the caller can explain the rejection.
  int calls = 0;
  const auto veto = +[](const std::vector<HopVerdict>& checked, void* ctx) {
    ++*static_cast<int*>(ctx);
    return checked.empty();  // always false here
  };
  const auto result = cac.admit_path(hops, 1, SwitchCac::kPermanentLease,
                                     veto, &calls);
  EXPECT_FALSE(result.admitted);
  EXPECT_EQ(result.rejecting_hop, ConcurrentCac::PathResult::npos);
  EXPECT_EQ(result.hops.size(), 2u);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(cac.connection_count(), 0u);

  const auto pass = +[](const std::vector<HopVerdict>&, void*) {
    return true;
  };
  EXPECT_TRUE(
      cac.admit_path(hops, 1, SwitchCac::kPermanentLease, pass, nullptr)
          .admitted);
  EXPECT_EQ(cac.connection_count(), 2u);
}

TEST(ConcurrentCac, ConcurrentOverlappingPathsNoDeadlock) {
  // Paths cross overlapping shard pairs in every order; the canonical
  // ascending-shard lock order inside admit_path must keep the racing
  // commits deadlock-free, and every committed path must be all-hops.
  ConcurrentCac cac({shard_config(96.0), shard_config(96.0),
                     shard_config(96.0)});
  const std::vector<std::vector<std::size_t>> pair_sets = {
      {0, 1}, {1, 2}, {2, 0}, {0, 2}};
  std::atomic<std::size_t> committed_hops{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xorshift rng(200 + static_cast<std::uint64_t>(t));
      for (int k = 0; k < 32; ++k) {
        const ConnectionId id = static_cast<ConnectionId>(t * 1000 + k + 1);
        const auto& shards =
            pair_sets[static_cast<std::size_t>(t + k) % pair_sets.size()];
        std::vector<ConcurrentCac::HopSpec> hops;
        for (const std::size_t shard : shards) {
          hops.push_back({.shard = shard, .in_port = rng.below(4),
                          .out_port = rng.below(2),
                          .priority = static_cast<Priority>(rng.below(2)),
                          .arrival = random_stream(rng)});
        }
        if (cac.admit_path(hops, id).admitted) {
          committed_hops.fetch_add(hops.size(), std::memory_order_relaxed);
          if (k % 4 == 3) {  // churn: release some paths again
            for (const std::size_t shard : shards) {
              ASSERT_TRUE(cac.remove(shard, id));
              committed_hops.fetch_sub(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(cac.connection_count(), committed_hops.load());
  EXPECT_TRUE(cac.state_consistent());
  EXPECT_TRUE(cac.bandwidth_conserved());
  EXPECT_TRUE(cac.cache_coherent());
}

TEST(ConcurrentCac, BatchedDrainMatchesImmediateRemoval) {
  const auto cfg = shard_config();
  ConcurrentCac immediate({cfg, cfg});
  ConcurrentCac batched({cfg, cfg});
  Xorshift rng_a(5);
  Xorshift rng_b(5);
  std::vector<ConnectionId> admitted;
  for (ConnectionId id = 1; id <= 20; ++id) {
    const std::size_t shard = id % 2;
    const Candidate a = random_candidate(rng_a, cfg);
    const Candidate b = random_candidate(rng_b, cfg);
    const bool in_a =
        immediate.admit(shard, id, a.in_port, a.out_port, a.priority, a.stream)
            .admitted;
    const bool in_b =
        batched.admit(shard, id, b.in_port, b.out_port, b.priority, b.stream)
            .admitted;
    ASSERT_EQ(in_a, in_b);
    if (in_a) admitted.push_back(id);
  }
  std::size_t queued = 0;
  for (const ConnectionId id : admitted) {
    if (id % 3 != 0) continue;  // tear down a third of the population
    ASSERT_TRUE(immediate.remove(id % 2, id));
    batched.queue_remove(id % 2, id);
    ++queued;
  }
  batched.queue_remove(0, 999'999);  // unknown ids are skipped, not fatal
  EXPECT_EQ(batched.pending_removals(), queued + 1);
  EXPECT_EQ(batched.drain_removals(), queued);
  EXPECT_EQ(batched.pending_removals(), 0u);
  EXPECT_EQ(batched.drain_removals(), 0u);  // idempotent when empty

  // One batched remove_many per shard must land on the same state as
  // one-at-a-time removal: same population, same rebuilt bounds.
  EXPECT_EQ(batched.connection_count(), immediate.connection_count());
  for (std::size_t shard = 0; shard < 2; ++shard) {
    for (std::size_t j = 0; j < cfg.out_ports; ++j) {
      for (Priority p = 0; p < cfg.priorities; ++p) {
        EXPECT_EQ(batched.computed_bound(shard, j, p),
                  immediate.computed_bound(shard, j, p));
      }
    }
  }
  EXPECT_TRUE(batched.state_consistent());
  EXPECT_TRUE(batched.bandwidth_conserved());
  EXPECT_TRUE(batched.cache_coherent());
}

TEST(ConcurrentCac, LeaseLifecycleAcrossShards) {
  const auto cfg = shard_config();
  ConcurrentCac cac({cfg, cfg});
  Xorshift rng(6);
  for (ConnectionId id = 1; id <= 3; ++id) {
    const Candidate c = random_candidate(rng, cfg);
    ASSERT_TRUE(cac.admit(id % 2, id, c.in_port, c.out_port, c.priority,
                          c.stream, /*lease_expiry=*/50.0)
                    .admitted);
  }
  EXPECT_TRUE(cac.renew_lease(0, 2, 200.0));
  EXPECT_TRUE(cac.make_permanent(1, 3));
  EXPECT_FALSE(cac.renew_lease(0, 77, 200.0));  // unknown id
  EXPECT_TRUE(cac.reclaim_all(49.0).empty());   // nothing expired yet
  const auto swept = cac.reclaim_all(100.0);
  ASSERT_EQ(swept.size(), 1u);  // id 1 expired; 2 renewed, 3 permanent
  EXPECT_EQ(swept.front(), 1u);
  EXPECT_FALSE(cac.contains(1, 1));
  EXPECT_TRUE(cac.contains(0, 2));
  EXPECT_TRUE(cac.contains(1, 3));
  // The renewed lease runs out eventually; the permanent one never does.
  EXPECT_EQ(cac.reclaim(0, 250.0).size(), 1u);
  EXPECT_TRUE(cac.reclaim_all(1e18).empty());
  EXPECT_TRUE(cac.state_consistent());
}

// The ThreadSanitizer target: every public operation racing on a
// multi-shard core.  Correctness here is "no data race, no torn state":
// after quiescing, all three audits must hold on every shard.
TEST(ConcurrentCac, StressMixedOperationsLeaveCoherentState) {
  const auto cfg = shard_config(128.0);
  ConcurrentCac cac({cfg, cfg, cfg});
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xorshift rng(300 + static_cast<std::uint64_t>(t));
      std::vector<std::pair<std::size_t, ConnectionId>> mine;  // shard, id
      for (int k = 0; k < 160; ++k) {
        const auto dice = rng.below(10);
        const std::size_t shard = rng.below(3);
        if (dice < 5) {
          const Candidate c = random_candidate(rng, cfg);
          (void)cac.check(shard, c.in_port, c.out_port, c.priority, c.stream);
        } else if (dice < 8) {
          const ConnectionId id =
              static_cast<ConnectionId>(t * 10000 + k + 1);
          const Candidate c = random_candidate(rng, cfg);
          const double lease = rng.below(4) == 0 ? 1e6 : SwitchCac::kPermanentLease;
          if (cac.admit(shard, id, c.in_port, c.out_port, c.priority, c.stream,
                        lease)
                  .admitted) {
            mine.emplace_back(shard, id);
          }
        } else if (dice == 8 && !mine.empty()) {
          const auto [s, id] = mine.back();
          mine.pop_back();
          // Ids are thread-local, so exactly one of remove/drain wins.
          if (rng.below(2) == 0) {
            (void)cac.remove(s, id);
          } else {
            cac.queue_remove(s, id);
          }
        } else {
          if (rng.below(4) == 0) {
            (void)cac.reclaim_all(2e6);
          } else {
            (void)cac.drain_removals();
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  (void)cac.drain_removals();  // quiesced: apply any leftover backlog
  EXPECT_EQ(cac.pending_removals(), 0u);
  EXPECT_TRUE(cac.state_consistent());
  EXPECT_TRUE(cac.bandwidth_conserved());
  EXPECT_TRUE(cac.cache_coherent());
}

// --- optimistic snapshot read path --------------------------------------

ConcurrentCac::HopSpec hop_spec(std::size_t shard, const Candidate& c) {
  ConcurrentCac::HopSpec hop;
  hop.shard = shard;
  hop.in_port = c.in_port;
  hop.out_port = c.out_port;
  hop.priority = c.priority;
  hop.arrival = std::any(c.stream);
  return hop;
}

TEST(ConcurrentCacSnapshot, SnapshotChecksMatchSerialVerdicts) {
  const auto cfg = shard_config();
  ConcurrentCac cac({cfg});
  SwitchCac serial(cfg);
  Xorshift rng(7);
  for (ConnectionId id = 1; id <= 20; ++id) {
    const Candidate c = random_candidate(rng, cfg);
    if (cac.admit(0, id, c.in_port, c.out_port, c.priority, c.stream)
            .admitted) {
      serial.add(id, c.in_port, c.out_port, c.priority, c.stream);
    }
  }
  ASSERT_TRUE(cac.snapshots_enabled(0));
  for (int i = 0; i < 32; ++i) {
    const Candidate c = random_candidate(rng, cfg);
    ConcurrentCac::CheckStamp stamp;
    const HopVerdict got = cac.check_hop(hop_spec(0, c), &stamp);
    const auto want = serial.check(c.in_port, c.out_port, c.priority, c.stream);
    ASSERT_EQ(got.admitted, want.admitted) << "candidate " << i;
    EXPECT_EQ(got.detail, want.reason) << "candidate " << i;
    if (want.admitted) {
      EXPECT_DOUBLE_EQ(got.bound, want.bound_at_priority.value());
    }
    // The stamp witnesses every queue of the checked point.
    EXPECT_EQ(stamp.shard, 0u);
    EXPECT_EQ(stamp.out_port, c.out_port);
    EXPECT_EQ(stamp.priority, c.priority);
    ASSERT_EQ(stamp.versions.size(), cfg.priorities);
  }
}

TEST(ConcurrentCacSnapshot, CheckPathTakesNoSharedLocksInAuditBuilds) {
  if (!LockStats::enabled()) {
    GTEST_SKIP() << "LockStats counts SharedMutex traffic only in audit "
                    "builds (RTCAC_AUDIT_ENABLED)";
  }
  const auto cfg = shard_config();
  ConcurrentCac cac({cfg});
  Xorshift rng(8);
  for (ConnectionId id = 1; id <= 16; ++id) {
    const Candidate c = random_candidate(rng, cfg);
    (void)cac.admit(0, id, c.in_port, c.out_port, c.priority, c.stream);
  }
  std::vector<ConcurrentCac::HopSpec> probes;
  for (int i = 0; i < 64; ++i) {
    probes.push_back(hop_spec(0, random_candidate(rng, cfg)));
  }
  // Quiesced, and every commit republished before its lock dropped:
  // every probe must ride the snapshot with zero shared_mutex
  // acquisitions — the promise of the optimistic read path.
  const std::uint64_t shared_before = LockStats::shared_acquisitions();
  const std::uint64_t exclusive_before = LockStats::exclusive_acquisitions();
  std::size_t admitted = 0;
  for (const auto& probe : probes) {
    if (cac.check_hop(probe).admitted) ++admitted;
  }
  EXPECT_EQ(LockStats::shared_acquisitions() - shared_before, 0u);
  EXPECT_EQ(LockStats::exclusive_acquisitions() - exclusive_before, 0u);
  EXPECT_LE(admitted, probes.size());
}

TEST(ConcurrentCacSnapshot, PointVersionsCoverTheDependencyCone) {
  auto cfg = shard_config(1e6);  // generous: every candidate admits
  ConcurrentCac cac({cfg});
  const BitStream stream = TrafficDescriptor::vbr(0.02, 0.01, 4).to_bitstream();
  const auto version = [&](std::size_t out, Priority p) {
    return cac.point_version(0, out, p);
  };
  const std::uint64_t v00 = version(0, 0), v01 = version(0, 1);
  const std::uint64_t v10 = version(1, 0), v11 = version(1, 1);
  // A commit at priority 1 invalidates only queue (0, 1): lower
  // priorities never depend on lower-priority traffic.
  ASSERT_TRUE(cac.admit(0, 1, 0, 0, 1, stream).admitted);
  EXPECT_EQ(version(0, 0), v00);
  EXPECT_GT(version(0, 1), v01);
  // A commit at priority 0 dirties the whole cone [0, P) of its out-port.
  ASSERT_TRUE(cac.admit(0, 2, 1, 0, 0, stream).admitted);
  EXPECT_GT(version(0, 0), v00);
  // The other out-port never moved.
  EXPECT_EQ(version(1, 0), v10);
  EXPECT_EQ(version(1, 1), v11);
  // Removal is a mutation like any other.
  const std::uint64_t v01_mid = version(0, 1);
  ASSERT_TRUE(cac.remove(0, 1));
  EXPECT_GT(version(0, 1), v01_mid);
}

TEST(ConcurrentCacSnapshot, StaleStampNeverOverAdmits) {
  SwitchCac::Config cfg;
  cfg.in_ports = 4;
  cfg.out_ports = 1;
  cfg.priorities = 1;
  cfg.advertised_bound = 24.0;
  ConcurrentCac cac({cfg});
  const BitStream hog = TrafficDescriptor::vbr(0.4, 0.1, 16).to_bitstream();
  // Speculative verdicts against the empty point, one per candidate
  // input: both admitted.
  std::vector<ConcurrentCac::SpeculativeHop> specs(2);
  for (std::size_t in = 0; in < 2; ++in) {
    const Candidate probe{in, 0, 0, hog};
    specs[in].verdict = cac.check_hop(hop_spec(0, probe), &specs[in].stamp);
    ASSERT_TRUE(specs[in].verdict.admitted);
  }
  // Interleaved commits fill the queue until it rejects the hog.
  std::size_t prefilled = 0;
  for (ConnectionId id = 100; id < 164; ++id) {
    if (!cac.admit(0, id, id % 2, 0, 0, hog).admitted) break;
    ++prefilled;
  }
  ASSERT_GT(prefilled, 0u);
  ASSERT_LT(prefilled, 64u) << "queue never filled";
  // The input the fill loop broke on is the one the live check now
  // rejects; drive the stale speculative verdict for exactly that hop.
  const Candidate cand{(100 + prefilled) % 2, 0, 0, hog};
  ASSERT_FALSE(
      cac.check(0, cand.in_port, cand.out_port, cand.priority, cand.stream)
          .admitted);
  const HopVerdict early = specs[cand.in_port].verdict;
  const ConcurrentCac::CheckStamp stamp = specs[cand.in_port].stamp;
  // The stale admitted verdict must NOT be reused: its stamp no longer
  // matches the live version counters, so admit_path re-checks the hop
  // against the committed state and rejects.
  const std::vector<ConcurrentCac::HopSpec> hops = {hop_spec(0, cand)};
  const std::vector<ConcurrentCac::SpeculativeHop> stale = {{early, stamp}};
  const auto rejected = cac.admit_path(hops, 999, SwitchCac::kPermanentLease,
                                       nullptr, nullptr, stale);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.rejecting_hop, 0u);
  EXPECT_EQ(rejected.hops_reused, 0u);
  EXPECT_EQ(rejected.hops_revalidated, 1u);
  EXPECT_FALSE(cac.contains(0, 999));
  EXPECT_EQ(cac.connection_count(), prefilled);
  const auto bound = cac.computed_bound(0, 0, 0);
  ASSERT_TRUE(bound.has_value());
  EXPECT_LE(*bound, cfg.advertised_bound + 1e-9);
}

TEST(ConcurrentCacSnapshot, CurrentStampReusesSpeculativeVerdict) {
  ConcurrentCac cac({shard_config()});
  Xorshift rng(9);
  const Candidate cand = random_candidate(rng, shard_config());
  ConcurrentCac::CheckStamp stamp;
  const HopVerdict verdict = cac.check_hop(hop_spec(0, cand), &stamp);
  ASSERT_TRUE(verdict.admitted);
  // Nothing committed in between: the stamp still matches under the
  // exclusive lock, so admit_path trusts the speculative verdict.
  const std::vector<ConcurrentCac::HopSpec> hops = {hop_spec(0, cand)};
  const std::vector<ConcurrentCac::SpeculativeHop> fresh = {{verdict, stamp}};
  const auto result = cac.admit_path(hops, 1, SwitchCac::kPermanentLease,
                                     nullptr, nullptr, fresh);
  EXPECT_TRUE(result.admitted);
  EXPECT_EQ(result.hops_reused, 1u);
  EXPECT_EQ(result.hops_revalidated, 0u);
  EXPECT_TRUE(cac.contains(0, 1));
  // A null stamp (empty versions) never validates — the conservative
  // fallback for locked checks of non-snapshot policies.
  ConcurrentCac::CheckStamp null_stamp;
  null_stamp.out_port = cand.out_port;
  null_stamp.priority = cand.priority;
  const std::vector<ConcurrentCac::SpeculativeHop> null_spec = {
      {verdict, null_stamp}};
  const auto revalidated = cac.admit_path(hops, 2, SwitchCac::kPermanentLease,
                                          nullptr, nullptr, null_spec);
  EXPECT_EQ(revalidated.hops_reused, 0u);
  EXPECT_EQ(revalidated.hops_revalidated, 1u);
}

// Test-only decorator over the paper's policy: its points export
// snapshots only until their first mutation and cannot attribute their
// mutations (dirty_queues() stays nullopt), so the first commit advances
// every version and every slot stays stale from then on.  bitstream()
// stays null, so commits must go through admit_path and the decorator's
// add(), never the stream-typed admit().
class StaleSnapshotPoint final : public PolicyCac {
 public:
  explicit StaleSnapshotPoint(std::unique_ptr<PolicyCac> inner)
      : inner_(std::move(inner)) {}

  double advertised(std::size_t out_port, Priority priority) const override {
    return inner_->advertised(out_port, priority);
  }
  std::any prepare(const TrafficDescriptor& traffic,
                   double cdv) const override {
    return inner_->prepare(traffic, cdv);
  }
  HopVerdict check(std::size_t in_port, std::size_t out_port,
                   Priority priority, const std::any& arrival) const override {
    return inner_->check(in_port, out_port, priority, arrival);
  }
  void add(ConnectionId id, std::size_t in_port, std::size_t out_port,
           Priority priority, const std::any& arrival,
           double lease_expiry) override {
    mutated_ = true;
    inner_->add(id, in_port, out_port, priority, arrival, lease_expiry);
  }
  bool remove(ConnectionId id) override {
    mutated_ = true;
    return inner_->remove(id);
  }
  std::size_t remove_many(std::span<const ConnectionId> ids) override {
    mutated_ = true;
    return inner_->remove_many(ids);
  }
  bool contains(ConnectionId id) const override {
    return inner_->contains(id);
  }
  bool renew_lease(ConnectionId id, double lease_expiry) override {
    return inner_->renew_lease(id, lease_expiry);
  }
  bool make_permanent(ConnectionId id) override {
    return inner_->make_permanent(id);
  }
  std::vector<ConnectionId> reclaim(double now) override {
    mutated_ = true;
    return inner_->reclaim(now);
  }
  std::optional<double> computed_bound(std::size_t out_port,
                                       Priority priority) const override {
    return inner_->computed_bound(out_port, priority);
  }
  std::size_t connection_count() const override {
    return inner_->connection_count();
  }
  void prime() const override { inner_->prime(); }
  std::shared_ptr<const PointSnapshot> export_point_snapshot(
      std::size_t out_port, const PointSnapshot* previous,
      std::span<const std::size_t> stale_priorities) const override {
    if (mutated_) return nullptr;
    return inner_->export_point_snapshot(out_port, previous,
                                         stale_priorities);
  }
  bool state_consistent() const override {
    return inner_->state_consistent();
  }
  bool bandwidth_conserved() const override {
    return inner_->bandwidth_conserved();
  }
  bool cache_coherent() const override { return inner_->cache_coherent(); }

 private:
  std::unique_ptr<PolicyCac> inner_;
  bool mutated_ = false;
};

class StaleSnapshotPolicy final : public CacPolicy {
 public:
  std::string_view name() const noexcept override { return "stale_snapshot"; }
  std::unique_ptr<PolicyCac> make_point(
      const PointConfig& config) const override {
    return std::make_unique<StaleSnapshotPoint>(
        BitstreamCacPolicy::instance().make_point(config));
  }
};

TEST(ConcurrentCacSnapshot, StaleSlotsFallBackToTheSharedLock) {
  // Once a slot is stale, check_hop must answer from the live state
  // under the shared lock, with the serial oracle's verdict and reason.
  const auto cfg = shard_config();
  const StaleSnapshotPolicy policy;
  ConcurrentCac cac(policy, {PointConfig{cfg.in_ports, cfg.out_ports,
                                         cfg.priorities, cfg.advertised_bound,
                                         cfg.coalesce_budget}});
  ASSERT_TRUE(cac.snapshots_enabled(0));
  SwitchCac serial(cfg);
  Xorshift rng(10);
  const std::uint64_t shared_before = LockStats::shared_acquisitions();
  std::uint64_t stale_probes = 0;
  bool committed = false;
  for (ConnectionId id = 1; id <= 24; ++id) {
    const Candidate c = random_candidate(rng, cfg);
    const bool fits =
        serial.check(c.in_port, c.out_port, c.priority, c.stream).admitted;
    const std::vector<ConcurrentCac::HopSpec> hops = {hop_spec(0, c)};
    ASSERT_EQ(cac.admit_path(hops, id).admitted, fits) << "id " << id;
    if (fits) {
      serial.add(id, c.in_port, c.out_port, c.priority, c.stream);
      committed = true;
    }
    const Candidate probe = random_candidate(rng, cfg);
    const HopVerdict hop = cac.check_hop(hop_spec(0, probe));
    const auto want =
        serial.check(probe.in_port, probe.out_port, probe.priority,
                     probe.stream);
    ASSERT_EQ(hop.admitted, want.admitted) << "after id " << id;
    EXPECT_EQ(hop.detail, want.reason) << "after id " << id;
    if (want.admitted) {
      EXPECT_DOUBLE_EQ(hop.bound, want.bound_at_priority.value());
    }
    if (committed) ++stale_probes;
  }
  ASSERT_GT(stale_probes, 0u);
  if (LockStats::enabled()) {
    // Commits lock exclusively, so every shared acquisition here is a
    // probe that found its slot stale.
    EXPECT_GE(LockStats::shared_acquisitions() - shared_before, stale_probes);
  }
  EXPECT_TRUE(cac.cache_coherent());
}

// The snapshot-reclamation TSan target: readers pin publications via
// shared_ptr while writers churn state, republish, and reclaim leases.
// Seeded; correctness here is "no data race, no torn snapshot" plus
// post-quiesce agreement with the live state.
TEST(ConcurrentCacSnapshot, ReadersPinSnapshotsAcrossConcurrentChurn) {
  const auto cfg = shard_config(96.0);
  ConcurrentCac cac({cfg, cfg});
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Xorshift rng(400 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t shard = rng.below(2);
        const Candidate c = random_candidate(rng, cfg);
        ConcurrentCac::CheckStamp stamp;
        const HopVerdict v = cac.check_hop(hop_spec(shard, c), &stamp);
        // Any verdict is acceptable mid-race; the stamp must always
        // cover the full point (snapshots are enabled for bitstream).
        if (stamp.versions.size() != cfg.priorities) std::abort();
        reads.fetch_add(1 + static_cast<std::size_t>(v.admitted),
                        std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      Xorshift rng(500 + static_cast<std::uint64_t>(t));
      std::vector<std::pair<std::size_t, ConnectionId>> mine;
      for (int k = 0; k < 240; ++k) {
        const std::size_t shard = rng.below(2);
        const auto dice = rng.below(8);
        if (dice < 4) {
          const ConnectionId id =
              static_cast<ConnectionId>(t * 10000 + k + 1);
          const Candidate c = random_candidate(rng, cfg);
          const double lease = rng.below(4) == 0 ? 1e6 : SwitchCac::kPermanentLease;
          if (cac.admit(shard, id, c.in_port, c.out_port, c.priority,
                        c.stream, lease)
                  .admitted) {
            mine.emplace_back(shard, id);
          }
        } else if (dice < 6 && !mine.empty()) {
          const auto [s, id] = mine.back();
          mine.pop_back();
          if (rng.below(2) == 0) {
            (void)cac.remove(s, id);
          } else {
            cac.queue_remove(s, id);
          }
        } else if (dice == 6) {
          (void)cac.drain_removals();
        } else if (rng.below(2) == 0) {
          (void)cac.reclaim_all(2e6);
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();
  EXPECT_GT(reads.load(), 0u);
  (void)cac.drain_removals();
  EXPECT_TRUE(cac.state_consistent());
  EXPECT_TRUE(cac.bandwidth_conserved());
  EXPECT_TRUE(cac.cache_coherent());
  // Quiesced: the snapshot verdict agrees with the live locked check.
  Xorshift rng(600);
  for (int i = 0; i < 16; ++i) {
    const std::size_t shard = rng.below(2);
    const Candidate c = random_candidate(rng, cfg);
    const HopVerdict snap = cac.check_hop(hop_spec(shard, c));
    const auto live =
        cac.check(shard, c.in_port, c.out_port, c.priority, c.stream);
    ASSERT_EQ(snap.admitted, live.admitted) << "probe " << i;
    EXPECT_EQ(snap.detail, live.reason);
  }
}

TEST(ConcurrentCac, ShardRangeIsChecked) {
  ConcurrentCac cac({shard_config()});
  EXPECT_EQ(cac.shard_count(), 1u);
  EXPECT_THROW(static_cast<void>(cac.contains(1, 1)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(cac.advertised(5, 0, 0)), std::out_of_range);
}

}  // namespace
}  // namespace rtcac
