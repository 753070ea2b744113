// Admission hot-path benchmark (docs/PERFORMANCE.md): measures the cached
// SwitchCac::check against the frozen pre-optimization path
// (check_from_scratch) on the paper's online-CAC regime — a 4x4 switch
// with 4 static priorities under connection churn — plus the k-way
// multiplex_all vs. left-fold micro comparison and the batched vs. per-id
// reclaim sweep.  Emits BENCH_admission.json (bench_json.h schema) so
// every perf PR lands a trajectory point, and self-checks that the two
// paths reach identical admission decisions (bounds within
// NumTraits<double>::kEps) before timing anything.
//
// The renegotiate_churn section drives in-place MODIFY storms through
// the DeltaTransaction swap sequence with the decision gated against the
// release-then-readmit-under-combined-load oracle (exact: identical;
// coalesced: admit-side conservative), emitting the `modifies` /
// `modify_admit_rate` record block.
//
// Also runs the merge-tree scaling sweep: n = 1k/10k/100k admitted
// connections, exact (coalesce_budget = 0) vs coalesced (budget 64)
// aggregates, recording per-admission churn cost, segment counts, node
// buffer stats, and peak RSS.  The exact variant is gated on decision identity
// with check_from_scratch; the coalesced variant on admit-side
// conservatism (it may only reject more / bound higher than the oracle).
// The same conservatism sweep records the false-reject rate — the
// fraction of probes the coalesced check rejects while the exact oracle
// admits — into the records' `false_reject_rate` key, so the budget's
// conservatism COST is tracked alongside its safety.
//
// Usage: cac_admission_bench [--smoke] [--scale-smoke] [--out PATH]
//   --smoke        CI-sized run: tiny rep counts, same scenarios and schema.
//   --scale-smoke  only the scaling sweep at n=1000 (the bench_scale_smoke
//                  ctest): oracle gates on, tiny rep counts.
//   --out          JSON output path (default: BENCH_admission.json).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_json.h"
#include "core/stream_ops.h"
#include "core/switch_cac.h"
#include "core/traffic.h"
#include "util/xorshift.h"

namespace {

using namespace rtcac;

constexpr std::size_t kInPorts = 4;
constexpr std::size_t kOutPorts = 4;
constexpr Priority kPriorities = 4;

struct Candidate {
  std::size_t in, out;
  Priority prio;
  BitStream arrival;
};

// Multi-burst worst-case envelopes: 18-25 decreasing steps per connection
// (a VBR source whose CDV-distorted bursts decay over many horizons),
// with sustained rates small enough that a 256-connection switch still
// admits.  Segment-rich streams are the regime the paper's online CAC
// must survive — and what separates the linear sweep from the quadratic
// reference scan.
BitStream random_arrival(Xorshift& rng, std::size_t rate_scale = 1) {
  const std::size_t steps = 18 + rng.below(8);
  std::vector<Segment> segs;
  double t = 0.0;
  for (std::size_t i = 0; i < steps; ++i) {
    // Strictly decreasing arithmetic ladder: every step is a distinct
    // rate (1/2048 apart, far beyond coalescing tolerance), so segment
    // counts survive aggregation and grow with the admitted set.
    // `rate_scale` (a power of two, so sums stay exactly representable)
    // shrinks the ladder for large-n sweeps where 256-connection rates
    // would saturate the links.
    const double rate = static_cast<double>(steps - i) /
                        (2048.0 * static_cast<double>(rate_scale));
    segs.push_back(Segment{rate, t});
    t += 4.0 * static_cast<double>(1 + rng.below(64));
  }
  return BitStream(std::move(segs));
}

Candidate random_candidate(Xorshift& rng, std::size_t rate_scale = 1) {
  return Candidate{rng.below(kInPorts), rng.below(kOutPorts),
                   static_cast<Priority>(rng.below(kPriorities)),
                   random_arrival(rng, rate_scale)};
}

// Smallest power of two keeping the burst-phase peak load of an output
// port below ~0.7 link rates for n admitted connections (n/4 connections
// per out port across all priorities, peak rate ~25/2048 each), so the
// sweep operates in the admit-mostly regime a provisioned switch runs in
// rather than rejecting everything on backlog.
std::size_t rate_scale_for(std::size_t n) {
  std::size_t scale = 1;
  while (scale * 256 < n) scale <<= 1;
  return scale;
}

SwitchCac make_switch(std::size_t coalesce_budget = 0) {
  SwitchCac::Config cfg;
  cfg.in_ports = kInPorts;
  cfg.out_ports = kOutPorts;
  cfg.priorities = kPriorities;
  cfg.advertised_bound = 512.0;
  cfg.coalesce_budget = coalesce_budget;
  return SwitchCac(cfg);
}

std::vector<Candidate> populate(SwitchCac& cac, std::size_t n, Xorshift& rng,
                                std::size_t rate_scale = 1) {
  std::vector<Candidate> routes;
  routes.reserve(n);
  for (std::size_t id = 1; id <= n; ++id) {
    Candidate c = random_candidate(rng, rate_scale);
    cac.add(id, c.in, c.out, c.prio, c.arrival);
    routes.push_back(std::move(c));
  }
  return routes;
}

std::size_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports KiB; macOS reports bytes.
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss) / 1024;
#else
  return static_cast<std::size_t>(usage.ru_maxrss);
#endif
#else
  return 0;
#endif
}

std::size_t segments_total(const SwitchCac& cac) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < kInPorts; ++i) {
    for (std::size_t j = 0; j < kOutPorts; ++j) {
      for (Priority p = 0; p < kPriorities; ++p) {
        total += cac.arrival_aggregate(i, j, p).size();
      }
    }
  }
  return total;
}

template <typename F>
double time_ns(F&& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto stop = std::chrono::steady_clock::now();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count());
}

bench::BenchRecord make_record(const std::string& name, std::size_t n,
                               double wall_ns, std::size_t ops,
                               std::size_t segments) {
  bench::BenchRecord r;
  r.benchmark = name;
  r.n = n;
  r.wall_ns = wall_ns;
  r.admissions_per_sec =
      wall_ns > 0.0 ? static_cast<double>(ops) * 1e9 / wall_ns : 0.0;
  r.segments_total = segments;
  return r;
}

// The gate before any timing: cached and from-scratch admission must
// agree — same verdicts, bounds within tolerance — on a candidate sweep
// over the populated switch.
bool decisions_identical(const SwitchCac& cac, Xorshift& rng,
                         std::size_t trials, std::size_t rate_scale = 1) {
  for (std::size_t t = 0; t < trials; ++t) {
    const Candidate c = random_candidate(rng, rate_scale);
    const SwitchCheckResult fast = cac.check(c.in, c.out, c.prio, c.arrival);
    const SwitchCheckResult slow =
        cac.check_from_scratch(c.in, c.out, c.prio, c.arrival);
    if (fast.admitted != slow.admitted) {
      std::cerr << "DECISION MISMATCH: cached "
                << (fast.admitted ? "admits" : "rejects") << ", scratch "
                << (slow.admitted ? "admits" : "rejects") << "\n";
      return false;
    }
    for (std::size_t q = 0; q < fast.bounds.size(); ++q) {
      const auto& a = fast.bounds[q];
      const auto& b = slow.bounds[q];
      if (a.has_value() != b.has_value() ||
          (a.has_value() && !NumTraits<double>::nearly_equal(*a, *b))) {
        std::cerr << "BOUND MISMATCH at priority " << q << "\n";
        return false;
      }
    }
  }
  return true;
}

// The coalesced-mode gate: the tree's bounded aggregates may only make
// the check MORE pessimistic than the from-scratch exact oracle — a
// coalesced admit implies an oracle admit, and every coalesced bound is
// at least the oracle's (losing a bound entirely is allowed, gaining one
// is not).  The same sweep measures the price of that safety: when
// `false_reject_rate` is non-null it receives the fraction of probes
// the coalesced check rejected while the exact oracle admitted.
bool decisions_conservative(const SwitchCac& cac, Xorshift& rng,
                            std::size_t trials, std::size_t rate_scale,
                            double* false_reject_rate = nullptr) {
  std::size_t false_rejects = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const Candidate c = random_candidate(rng, rate_scale);
    const SwitchCheckResult fast = cac.check(c.in, c.out, c.prio, c.arrival);
    const SwitchCheckResult slow =
        cac.check_from_scratch(c.in, c.out, c.prio, c.arrival);
    if (fast.admitted && !slow.admitted) {
      std::cerr << "CONSERVATISM VIOLATION: coalesced admits where the "
                   "exact oracle rejects\n";
      return false;
    }
    if (!fast.admitted && slow.admitted) ++false_rejects;
    for (std::size_t q = 0; q < fast.bounds.size(); ++q) {
      const auto& a = fast.bounds[q];
      const auto& b = slow.bounds[q];
      if (a.has_value() && !b.has_value()) {
        std::cerr << "CONSERVATISM VIOLATION: coalesced bounds priority "
                  << q << " where the exact oracle cannot\n";
        return false;
      }
      if (a.has_value() && b.has_value() && *a < *b &&
          !NumTraits<double>::nearly_equal(*a, *b)) {
        std::cerr << "CONSERVATISM VIOLATION: coalesced bound " << *a
                  << " below oracle bound " << *b << " at priority " << q
                  << "\n";
        return false;
      }
    }
  }
  if (false_reject_rate != nullptr && trials > 0) {
    *false_reject_rate =
        static_cast<double>(false_rejects) / static_cast<double>(trials);
  }
  return true;
}

// In-place renegotiation churn (MODIFY): a standing population whose
// descriptors keep being replaced in place through the DeltaTransaction
// swap — add(provisional, new), remove(id), remove(provisional),
// add(id, new) — the exact per-cell op sequence PathEvaluator's delta
// core commits, so the timed loop measures what a MODIFY storm costs a
// single switch.  The gate before timing anything is the ISSUE's
// renegotiation oracle: the MODIFY decision is the NEW descriptor
// checked while the OLD reservation stays committed (release-then-
// readmit under combined load), and the cached check must reproduce
// check_from_scratch on those candidates bit-identically in exact mode
// and admit-side conservatively in coalesced mode.  Emits the
// `modifies` / `modify_admit_rate` record block.
int renegotiate_churn(bench::BenchJsonWriter& json, bool tiny) {
  std::cout << "\nrenegotiate churn (in-place MODIFY)\n";
  struct Variant {
    const char* name;
    std::size_t budget;
  };
  constexpr Variant kVariants[] = {{"exact", 0}, {"coalesced", 64}};
  const std::size_t n = tiny ? 32 : 256;
  for (const Variant& v : kVariants) {
    Xorshift rng(42);
    SwitchCac cac = make_switch(v.budget);
    std::vector<Candidate> routes = populate(cac, n, rng);

    // The decision-identity gate, on renegotiation candidates: same
    // ports and priority as an established connection, fresh arrival,
    // old reservation still committed.
    Xorshift gate_rng(7);
    const std::size_t trials = tiny ? 8 : 32;
    std::size_t false_rejects = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      const Candidate& old_c = routes[gate_rng.below(routes.size())];
      const BitStream next = random_arrival(gate_rng);
      const SwitchCheckResult fast =
          cac.check(old_c.in, old_c.out, old_c.prio, next);
      const SwitchCheckResult slow =
          cac.check_from_scratch(old_c.in, old_c.out, old_c.prio, next);
      if (v.budget == 0) {
        if (fast.admitted != slow.admitted) {
          std::cerr << "RENEGOTIATION DECISION MISMATCH (exact): cached "
                    << (fast.admitted ? "admits" : "rejects")
                    << ", combined-load oracle "
                    << (slow.admitted ? "admits" : "rejects") << "\n";
          return 1;
        }
      } else {
        if (fast.admitted && !slow.admitted) {
          std::cerr << "RENEGOTIATION CONSERVATISM VIOLATION: coalesced "
                       "admits a MODIFY the combined-load oracle rejects\n";
          return 1;
        }
        if (!fast.admitted && slow.admitted) ++false_rejects;
      }
    }
    const double false_reject_rate =
        static_cast<double>(false_rejects) / static_cast<double>(trials);

    const std::size_t ops = tiny ? 30 : 400;
    Xorshift churn_rng(99);
    ConnectionId provisional = n + 1;
    std::size_t admitted = 0;
    const double ns = time_ns([&] {
      for (std::size_t i = 0; i < ops; ++i) {
        const std::size_t victim = churn_rng.below(routes.size());
        Candidate& c = routes[victim];
        BitStream next = random_arrival(churn_rng);
        if (!cac.check(c.in, c.out, c.prio, next).admitted) {
          ++provisional;  // the core burns an id per attempt
          continue;
        }
        // The DeltaTransaction swap, make-before-break: the new
        // descriptor is held under the provisional id across the old
        // reservation's release, then moved to the surviving id.
        const ConnectionId id = victim + 1;
        cac.add(provisional, c.in, c.out, c.prio, next);
        (void)cac.remove(id);
        (void)cac.remove(provisional);
        cac.add(id, c.in, c.out, c.prio, next);
        ++provisional;
        c.arrival = std::move(next);
        ++admitted;
      }
    });

    const CacArenaStats stats = cac.arena_stats();
    bench::BenchRecord r = make_record(
        std::string("renegotiate_churn_") + v.name + "_n" + std::to_string(n),
        n, ns, ops, segments_total(cac));
    r.variant = v.name;
    r.false_reject_rate = false_reject_rate;
    r.arena_bytes = stats.held_bytes;
    r.segments_high_water = stats.peak_segments;
    r.rss_peak_kb = peak_rss_kb();
    r.modifies = ops;
    r.modify_admit_rate =
        static_cast<double>(admitted) / static_cast<double>(ops);
    json.add(std::move(r));
    std::cout << "renegotiate  n=" << n << " (" << v.name << "): "
              << ns / static_cast<double>(ops) / 1e3 << " us/op, " << admitted
              << "/" << ops << " modifies admitted, false-reject rate "
              << false_reject_rate << "\n";
  }
  return 0;
}

// The tentpole's scaling story: per-admission churn cost at n admitted
// connections, exact vs coalesced merge-tree aggregates.  `reps_scale`
// in (0, 1] shrinks op counts for the smoke/ctest variants.
int scaling_sweep(bench::BenchJsonWriter& json,
                  const std::vector<std::size_t>& sizes, bool tiny) {
  std::cout << "\nscaling sweep (merge-tree aggregates)\n";
  struct Variant {
    const char* name;
    std::size_t budget;
  };
  constexpr Variant kVariants[] = {{"exact", 0}, {"coalesced", 64}};
  double per_op_first = 0.0;
  double per_op_last = 0.0;
  for (const Variant& v : kVariants) {
    for (const std::size_t n : sizes) {
      const std::size_t rate_scale = rate_scale_for(n);
      Xorshift rng(42);
      SwitchCac cac = make_switch(v.budget);
      populate(cac, n, rng, rate_scale);
      const std::size_t segments = segments_total(cac);

      // Oracle gate before timing anything.
      Xorshift gate_rng(7);
      const std::size_t trials =
          tiny ? 6 : (n >= 100000 ? 3 : (n >= 10000 ? 6 : 12));
      double false_reject_rate = 0.0;
      const bool gate_ok =
          v.budget == 0
              ? decisions_identical(cac, gate_rng, trials, rate_scale)
              : decisions_conservative(cac, gate_rng, trials, rate_scale,
                                       &false_reject_rate);
      if (!gate_ok) {
        std::cerr << "scaling sweep gate failed: variant " << v.name
                  << ", n=" << n << "\n";
        return 1;
      }

      // One churn op = teardown of the oldest connection + admission
      // check + setup of a fresh one: the steady-state per-admission
      // cost an online CAC pays at population n.
      const std::size_t ops = tiny ? 30 : 200;
      Xorshift churn_rng(99);
      ConnectionId next_id = n + 1;
      ConnectionId oldest = 1;
      std::size_t admitted = 0;
      const double ns = time_ns([&] {
        for (std::size_t i = 0; i < ops; ++i) {
          (void)cac.remove(oldest++);
          Candidate c = random_candidate(churn_rng, rate_scale);
          if (cac.check(c.in, c.out, c.prio, c.arrival).admitted) {
            cac.add(next_id, c.in, c.out, c.prio, c.arrival);
            ++admitted;
          }
          ++next_id;
        }
      });

      const CacArenaStats stats = cac.arena_stats();
      bench::BenchRecord r = make_record(
          std::string("scale_churn_") + v.name + "_n" + std::to_string(n), n,
          ns, ops, segments);
      r.variant = v.name;
      r.false_reject_rate = false_reject_rate;
      r.arena_bytes = stats.held_bytes;
      r.segments_high_water = stats.peak_segments;
      r.rss_peak_kb = peak_rss_kb();
      json.add(std::move(r));

      const double per_op = ns / static_cast<double>(ops);
      if (v.budget != 0) {
        if (n == sizes.front()) per_op_first = per_op;
        per_op_last = per_op;
      }
      std::cout << "scale_churn  n=" << n << " (" << v.name
                << "): " << per_op / 1e3 << " us/op, " << admitted << "/"
                << ops << " admitted, " << segments << " aggr segments, "
                << stats.peak_segments << " peak tree segments, nodes "
                << stats.held_bytes / 1024 << " KiB ("
                << stats.arena_reuses << "/" << stats.arena_acquires
                << " rebuilds in place), false-reject rate "
                << false_reject_rate
                << "\n";
    }
  }
  if (sizes.size() > 1 && per_op_first > 0.0) {
    std::cout << "coalesced per-op growth n=" << sizes.front() << " -> n="
              << sizes.back() << ": " << per_op_last / per_op_first
              << "x\n";
  }
  return 0;
}

int run(bool smoke, bool scale_only, const std::string& out_path) {
  bench::BenchJsonWriter json;
  std::cout << (smoke ? "[smoke] " : (scale_only ? "[scale-smoke] " : ""))
            << "cac_admission_bench: " << kInPorts << "x" << kOutPorts
            << " switch, " << kPriorities << " priorities\n\n";

  if (scale_only) {
    if (scaling_sweep(json, {1000}, /*tiny=*/true) != 0) return 1;
    if (!json.write(out_path)) {
      std::cerr << "error: cannot write " << out_path << "\n";
      return 1;
    }
    std::cout << "\nwrote " << json.records().size() << " records to "
              << out_path << "\n";
    return 0;
  }

  // --- admission throughput vs. admitted-connection count ---------------
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{16}
            : std::vector<std::size_t>{16, 64, 256};
  for (const std::size_t n : sizes) {
    Xorshift rng(42);
    SwitchCac cac = make_switch();
    populate(cac, n, rng);
    const std::size_t segments = segments_total(cac);

    Xorshift check_rng(7);
    if (!decisions_identical(cac, check_rng, smoke ? 4 : 32)) return 1;

    std::vector<Candidate> probes;
    Xorshift probe_rng(1000 + n);
    const std::size_t reps_cached = smoke ? 40 : 2000;
    const std::size_t reps_scratch = smoke ? 4 : (n >= 256 ? 30 : 200);
    for (std::size_t i = 0;
         i < std::max(reps_cached, reps_scratch); ++i) {
      probes.push_back(random_candidate(probe_rng));
    }
    // Warm the caches once so the cached numbers measure the steady
    // state, the regime an online CAC lives in.
    (void)cac.check(probes[0].in, probes[0].out, probes[0].prio,
                    probes[0].arrival);

    bool sink = false;
    const double cached_ns = time_ns([&] {
      for (std::size_t i = 0; i < reps_cached; ++i) {
        const Candidate& c = probes[i];
        sink ^= cac.check(c.in, c.out, c.prio, c.arrival).admitted;
      }
    });
    const double scratch_ns = time_ns([&] {
      for (std::size_t i = 0; i < reps_scratch; ++i) {
        const Candidate& c = probes[i];
        sink ^=
            cac.check_from_scratch(c.in, c.out, c.prio, c.arrival).admitted;
      }
    });
    if (sink) std::cout << "";  // keep the checks observable

    json.add(make_record("check_cached_n" + std::to_string(n), n, cached_ns,
                         reps_cached, segments));
    json.add(make_record("check_scratch_n" + std::to_string(n), n,
                         scratch_ns, reps_scratch, segments));
    const double per_cached = cached_ns / static_cast<double>(reps_cached);
    const double per_scratch = scratch_ns / static_cast<double>(reps_scratch);
    std::cout << "check        n=" << n << ": cached " << per_cached / 1e3
              << " us/op, scratch " << per_scratch / 1e3 << " us/op ("
              << per_scratch / per_cached << "x)\n";
  }

  // --- setup/teardown churn (the acceptance scenario) -------------------
  {
    const std::size_t n = smoke ? 32 : 256;
    const std::size_t churn_cached = smoke ? 20 : 600;
    const std::size_t churn_scratch = smoke ? 5 : 40;
    double per_op[2] = {0.0, 0.0};
    for (const bool scratch : {false, true}) {
      Xorshift rng(42);
      SwitchCac cac = make_switch();
      populate(cac, n, rng);
      const std::size_t segments = segments_total(cac);
      const std::size_t ops = scratch ? churn_scratch : churn_cached;
      Xorshift churn_rng(99);
      ConnectionId next_id = n + 1;
      ConnectionId oldest = 1;
      std::size_t admitted = 0;
      const double ns = time_ns([&] {
        for (std::size_t i = 0; i < ops; ++i) {
          // One churn op = teardown of the oldest connection, then a
          // route search (probe kAltRoutes candidate routes, as ATM
          // signaling does on SETUP, and keep the one with the smallest
          // delay bound) and setup of the chosen alternative.
          constexpr std::size_t kAltRoutes = 4;
          (void)cac.remove(oldest++);
          std::optional<Candidate> best;
          double best_bound = 0.0;
          for (std::size_t alt = 0; alt < kAltRoutes; ++alt) {
            Candidate c = random_candidate(churn_rng);
            const SwitchCheckResult r =
                scratch
                    ? cac.check_from_scratch(c.in, c.out, c.prio, c.arrival)
                    : cac.check(c.in, c.out, c.prio, c.arrival);
            if (!r.admitted) continue;
            const double bound = r.bounds[c.prio].value_or(0.0);
            if (!best || bound < best_bound) {
              best = std::move(c);
              best_bound = bound;
            }
          }
          if (best) {
            cac.add(next_id, best->in, best->out, best->prio, best->arrival);
            ++admitted;
          }
          ++next_id;
        }
      });
      const std::string name =
          std::string("churn_") + (scratch ? "scratch" : "cached") + "_n" +
          std::to_string(n);
      json.add(make_record(name, n, ns, ops, segments));
      per_op[scratch ? 1 : 0] = ns / static_cast<double>(ops);
      std::cout << "churn        n=" << n << " ("
                << (scratch ? "scratch" : "cached ") << "): "
                << per_op[scratch ? 1 : 0] / 1e3 << " us/op, " << admitted
                << "/" << ops << " admitted\n";
    }
    std::cout << "churn speedup (scratch/cached): "
              << per_op[1] / per_op[0] << "x\n";
  }

  // --- in-place renegotiation churn (MODIFY) ----------------------------
  if (renegotiate_churn(json, /*tiny=*/smoke) != 0) return 1;

  // --- k-way multiplex vs. left-fold micro ------------------------------
  for (const std::size_t k :
       smoke ? std::vector<std::size_t>{16}
             : std::vector<std::size_t>{64, 256}) {
    Xorshift rng(5);
    std::vector<BitStream> streams;
    std::vector<const BitStream*> ptrs;
    for (std::size_t i = 0; i < k; ++i) {
      streams.push_back(random_arrival(rng));
    }
    for (const auto& s : streams) ptrs.push_back(&s);
    const std::size_t reps = smoke ? 5 : 50;
    // Verify once before timing: the two forms must produce the same
    // aggregate (tolerance-equal; bitwise when no coalescing fires).
    BitStream fold_result;
    for (const auto& s : streams) fold_result = multiplex(fold_result, s);
    const BitStream kway_result = multiplex_all(ptrs);
    if (!fold_result.nearly_equal(kway_result)) {
      std::cerr << "MULTIPLEX MISMATCH: fold " << fold_result.size()
                << " segments vs k-way " << kway_result.size() << "\n";
      return 1;
    }
    std::size_t segs = 0;
    const double fold_ns = time_ns([&] {
      for (std::size_t r = 0; r < reps; ++r) {
        BitStream aggr;
        for (const auto& s : streams) aggr = multiplex(aggr, s);
        segs = aggr.size();
      }
    });
    const double kway_ns = time_ns([&] {
      for (std::size_t r = 0; r < reps; ++r) {
        segs = multiplex_all(ptrs).size();
      }
    });
    json.add(make_record("multiplex_fold_n" + std::to_string(k), k, fold_ns,
                         reps, segs));
    json.add(make_record("multiplex_kway_n" + std::to_string(k), k, kway_ns,
                         reps, segs));
    std::cout << "multiplex    k=" << k << ": fold "
              << fold_ns / static_cast<double>(reps) / 1e3
              << " us, k-way " << kway_ns / static_cast<double>(reps) / 1e3
              << " us (" << fold_ns / kway_ns << "x)\n";
  }

  // --- batched vs. per-id orphan reclamation ----------------------------
  {
    const std::size_t n = smoke ? 32 : 256;
    const std::size_t reps = smoke ? 2 : 10;
    double wall[2] = {0.0, 0.0};
    std::size_t segments = 0;
    for (const bool batched : {true, false}) {
      double total = 0.0;
      for (std::size_t r = 0; r < reps; ++r) {
        Xorshift rng(42);
        SwitchCac cac = make_switch();
        // Half the reservations hold short leases: the orphan sweep after
        // a burst of lost CONNECTEDs, many expiries per touched cell.
        for (std::size_t id = 1; id <= n; ++id) {
          const Candidate c = random_candidate(rng);
          cac.add(id, c.in, c.out, c.prio, c.arrival,
                  id % 2 == 0 ? 10.0 : SwitchCac::kPermanentLease);
        }
        segments = segments_total(cac);
        total += time_ns([&] {
          if (batched) {
            (void)cac.reclaim(20.0);
          } else {
            for (std::size_t id = 2; id <= n; id += 2) {
              (void)cac.remove(id);
            }
          }
        });
      }
      wall[batched ? 0 : 1] = total;
      json.add(make_record(
          std::string("reclaim_") + (batched ? "batched" : "serial") + "_n" +
              std::to_string(n),
          n, total, reps * (n / 2), segments));
    }
    std::cout << "reclaim      n=" << n << ": batched "
              << wall[0] / static_cast<double>(reps) / 1e6
              << " ms/sweep, serial "
              << wall[1] / static_cast<double>(reps) / 1e6 << " ms/sweep ("
              << wall[1] / wall[0] << "x)\n";
  }

  // --- merge-tree scaling sweep (exact vs coalesced aggregates) ---------
  {
    const std::vector<std::size_t> sizes =
        smoke ? std::vector<std::size_t>{1000}
              : std::vector<std::size_t>{1000, 10000, 100000};
    if (scaling_sweep(json, sizes, /*tiny=*/smoke) != 0) return 1;
  }

  if (!json.write(out_path)) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json.records().size() << " records to "
            << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool scale_only = false;
  std::string out_path = "BENCH_admission.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--scale-smoke") {
      scale_only = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: cac_admission_bench [--smoke] [--scale-smoke] "
                   "[--out PATH]\n";
      return 2;
    }
  }
  return run(smoke, scale_only, out_path);
}
