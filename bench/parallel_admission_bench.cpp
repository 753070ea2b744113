// Thread-scaling benchmark of the parallel sharded admission engine
// (docs/PERFORMANCE.md, "Parallel admission").
//
// An 8-switch chain (each switch with 4 source and 4 sink terminals,
// multi-hop routes up to 3 queueing points) is driven through recorded
// operation traces — check-only, setup/teardown churn (immediate and
// batch-drained), a mixed 90/10 lookup/update workload, and a
// renegotiate_churn MODIFY storm (in-place renegotiations through the
// DeltaTransaction core, gated against the serial renegotiate oracle
// and recorded via the `modifies`/`modify_admit_rate` keys) — replayed
// by AdmissionEngine::replay on 1/2/4/8 worker threads.  A second,
// deliberately contended topology — a wide 12-switch star field with
// single-switch routes, so worker threads fan out over disjoint shards —
// carries the wide_check_only workload where the lock-free snapshot read
// path can show real thread scaling (the chain's replay-order ticket
// dependencies bound what any read path could deliver).  Every record
// carries the runner's hardware_concurrency so speedup columns compare
// like with like across machines, and n counts *admission* ops (drain
// barriers excluded) for the same reason.  In audit builds
// (RTCAC_AUDIT_ENABLED) the wide bitstream run additionally asserts the
// tentpole's zero-shared-lock promise: a post-replay burst of checks
// against the quiesced engine must leave the process-wide SharedMutex
// acquisition counters (util/thread_annotations.h LockStats) unchanged.
//
// The hard gate, checked before any number is reported: the parallel
// decision stream must be IDENTICAL to a serial oracle — a plain
// ConnectionManager built on the same CacPolicy replaying the same trace
// through ConnectionManager::check()/setup() — for every workload, every
// policy and every thread count (verdicts, reason strings and RejectReason
// codes/hops alike).  A mismatch aborts with exit 1.  Speedups are
// reported honestly for whatever hardware runs the bench (on a
// single-core container they hover around 1x or below; the scheduling
// overhead is then the story) and recorded in BENCH_parallel.json via the
// bench_json.h schema with the `threads` / `speedup_vs_serial` / `policy`
// keys.
//
// Usage: parallel_admission_bench [--smoke] [--out PATH] [--policy NAME]
//   --smoke   CI-sized run: short traces, threads {1,2}, same gates.
//   --out     JSON output path (default: BENCH_parallel.json).
//   --policy  bitstream (default), peak, max_rate, or all.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baseline/policies.h"
#include "bench_json.h"
#include "core/traffic.h"
#include "net/admission_engine.h"
#include "net/connection_manager.h"
#include "net/topology.h"
#include "util/thread_annotations.h"
#include "util/xorshift.h"

namespace {

using namespace rtcac;

using TraceOp = AdmissionEngine::TraceOp;
using OpOutcome = AdmissionEngine::OpOutcome;

constexpr std::size_t kSwitches = 8;
constexpr std::size_t kTermsPerSwitch = 4;
constexpr Priority kPriorities = 4;

struct Net {
  Topology topology;
  std::vector<Route> routes;  // 1..3 queueing points each
};

// Chain of kSwitches switches; every switch feeds the next and carries
// kTermsPerSwitch source and sink terminals, so routes cross 1-3
// distinct shards and neighboring routes contend on shared switches.
Net make_net() {
  Net net;
  std::vector<NodeId> switches;
  for (std::size_t s = 0; s < kSwitches; ++s) {
    switches.push_back(net.topology.add_switch("sw" + std::to_string(s)));
  }
  std::vector<LinkId> chain;  // chain[s] = link sw(s) -> sw(s+1)
  for (std::size_t s = 0; s + 1 < kSwitches; ++s) {
    chain.push_back(net.topology.add_link(switches[s], switches[s + 1]));
  }
  std::vector<std::vector<LinkId>> access(kSwitches);  // terminal -> switch
  std::vector<std::vector<LinkId>> egress(kSwitches);  // switch -> terminal
  for (std::size_t s = 0; s < kSwitches; ++s) {
    for (std::size_t t = 0; t < kTermsPerSwitch; ++t) {
      const NodeId src = net.topology.add_terminal(
          "src" + std::to_string(s) + "_" + std::to_string(t));
      access[s].push_back(net.topology.add_link(src, switches[s]));
      const NodeId dst = net.topology.add_terminal(
          "dst" + std::to_string(s) + "_" + std::to_string(t));
      egress[s].push_back(net.topology.add_link(switches[s], dst));
    }
  }
  for (std::size_t s = 0; s < kSwitches; ++s) {
    for (std::size_t hops = 1; hops <= 3; ++hops) {
      const std::size_t last = s + hops - 1;
      if (last >= kSwitches) continue;
      for (std::size_t ti = 0; ti < kTermsPerSwitch; ++ti) {
        Route route;
        route.push_back(access[s][ti]);
        for (std::size_t h = s; h < last; ++h) route.push_back(chain[h]);
        route.push_back(egress[last][ti]);
        net.routes.push_back(std::move(route));
      }
    }
  }
  return net;
}

// Contended topology where real scaling is possible: kWideSwitches
// independent switches, each with its own terminals, every route
// crossing exactly ONE switch.  Disjoint single-shard routes mean the
// replay's per-shard ticket schedule serializes almost nothing, so the
// wall clock measures the read path itself — snapshot checks with zero
// lock traffic fan out across every worker.
constexpr std::size_t kWideSwitches = 12;
constexpr std::size_t kWideTermsPerSwitch = 4;

Net make_wide_net() {
  Net net;
  for (std::size_t s = 0; s < kWideSwitches; ++s) {
    const NodeId sw = net.topology.add_switch("wsw" + std::to_string(s));
    for (std::size_t t = 0; t < kWideTermsPerSwitch; ++t) {
      const NodeId src = net.topology.add_terminal(
          "wsrc" + std::to_string(s) + "_" + std::to_string(t));
      const LinkId in = net.topology.add_link(src, sw);
      const NodeId dst = net.topology.add_terminal(
          "wdst" + std::to_string(s) + "_" + std::to_string(t));
      const LinkId out = net.topology.add_link(sw, dst);
      net.routes.push_back({in, out});
    }
  }
  return net;
}

ConnectionManager::Params make_params() {
  ConnectionManager::Params params;
  params.priorities = kPriorities;
  params.advertised_bound = 512.0;
  return params;
}

// Admission ops of a trace: drain barriers are batching punctuation, not
// admission work, so they stay out of `n` and the per-op rates — the
// churn_batched rows must compare like with like against churn.
std::size_t admission_ops(const std::vector<TraceOp>& trace) {
  return static_cast<std::size_t>(
      std::count_if(trace.begin(), trace.end(), [](const TraceOp& op) {
        return op.kind != TraceOp::Kind::kDrain;
      }));
}

QosRequest random_request(Xorshift& rng) {
  QosRequest request;
  const double scr = static_cast<double>(1 + rng.below(6)) / 2048.0;
  const double pcr = scr * static_cast<double>(2 + rng.below(6));
  request.traffic = TrafficDescriptor::vbr(
      pcr, scr, static_cast<std::uint32_t>(2 + rng.below(30)));
  request.priority = static_cast<Priority>(rng.below(kPriorities));
  // Mostly generous deadlines; one in eight tight enough to exercise the
  // end-to-end rejection path in both the engine and the oracle.
  request.deadline = rng.below(8) == 0 ? 900.0 : 1e7;
  return request;
}

TraceOp check_op(Xorshift& rng, const Net& net) {
  TraceOp op;
  op.kind = TraceOp::Kind::kCheck;
  op.request = random_request(rng);
  op.route = net.routes[rng.below(net.routes.size())];
  return op;
}

TraceOp setup_op(Xorshift& rng, const Net& net) {
  TraceOp op = check_op(rng, net);
  op.kind = TraceOp::Kind::kSetup;
  return op;
}

// Teardown of a uniformly random earlier setup op.  Repeats are fine
// (the second attempt is a no-op in engine and oracle alike).
TraceOp teardown_op(Xorshift& rng, const std::vector<std::size_t>& setups,
                    bool deferred) {
  TraceOp op;
  op.kind = deferred ? TraceOp::Kind::kTeardownDeferred
                     : TraceOp::Kind::kTeardown;
  op.target = setups[rng.below(setups.size())];
  return op;
}

std::vector<TraceOp> make_check_only(std::size_t ops, const Net& net) {
  Xorshift rng(101);
  std::vector<TraceOp> trace;
  // Prologue: load the network so the checks have state to fight.
  for (std::size_t i = 0; i < ops / 4; ++i) trace.push_back(setup_op(rng, net));
  for (std::size_t i = 0; i < ops; ++i) trace.push_back(check_op(rng, net));
  return trace;
}

std::vector<TraceOp> make_churn(std::size_t ops, const Net& net,
                                bool batched) {
  Xorshift rng(202);
  std::vector<TraceOp> trace;
  std::vector<std::size_t> setups;
  for (std::size_t i = 0; i < ops / 4; ++i) {
    setups.push_back(trace.size());
    trace.push_back(setup_op(rng, net));
  }
  for (std::size_t i = 0; i < ops; ++i) {
    if (i % 2 == 0) {
      trace.push_back(teardown_op(rng, setups, batched));
    } else {
      setups.push_back(trace.size());
      trace.push_back(setup_op(rng, net));
    }
    if (batched && i % 32 == 31) {
      TraceOp drain;
      drain.kind = TraceOp::Kind::kDrain;
      trace.push_back(std::move(drain));
    }
  }
  if (batched) {
    TraceOp drain;
    drain.kind = TraceOp::Kind::kDrain;
    trace.push_back(std::move(drain));
  }
  return trace;
}

std::vector<TraceOp> make_mixed(std::size_t ops, const Net& net) {
  Xorshift rng(303);
  std::vector<TraceOp> trace;
  std::vector<std::size_t> setups;
  for (std::size_t i = 0; i < ops / 8; ++i) {
    setups.push_back(trace.size());
    trace.push_back(setup_op(rng, net));
  }
  for (std::size_t i = 0; i < ops; ++i) {
    if (rng.below(10) == 0) {
      if (rng.below(2) == 0) {
        trace.push_back(teardown_op(rng, setups, false));
      } else {
        setups.push_back(trace.size());
        trace.push_back(setup_op(rng, net));
      }
    } else {
      trace.push_back(check_op(rng, net));
    }
  }
  return trace;
}

// In-place renegotiation churn: a standing population whose descriptors
// keep being renegotiated in place (MODIFY) with a setup/teardown ripple
// on the side, so the replay drives AdmissionEngine::renegotiate — the
// union-cone stamp validation and the DeltaTransaction swap under the
// exclusive lock set — against the serial ConnectionManager::renegotiate
// oracle.  Some MODIFYs deliberately target torn-down connections; both
// sides report the same unknown-id rejection, so the decision stream
// stays bit-comparable.
std::vector<TraceOp> make_renegotiate_churn(std::size_t ops, const Net& net) {
  Xorshift rng(404);
  std::vector<TraceOp> trace;
  std::vector<std::size_t> setups;
  for (std::size_t i = 0; i < ops / 4; ++i) {
    setups.push_back(trace.size());
    trace.push_back(setup_op(rng, net));
  }
  for (std::size_t i = 0; i < ops; ++i) {
    const std::uint64_t pick = rng.below(10);
    if (pick < 6) {
      TraceOp op;
      op.kind = TraceOp::Kind::kModify;
      op.target = setups[rng.below(setups.size())];
      op.request = random_request(rng);
      trace.push_back(std::move(op));
    } else if (pick < 8) {
      setups.push_back(trace.size());
      trace.push_back(setup_op(rng, net));
    } else {
      trace.push_back(teardown_op(rng, setups, false));
    }
  }
  return trace;
}

// --- serial oracle ------------------------------------------------------
// A plain ConnectionManager on the same policy walks the identical trace
// in order; its decisions define correctness for every parallel replay.
// check() IS the oracle — both paths funnel through the one PathEvaluator
// in src/core/path_eval.h, so there is no second hop walk to drift.

std::vector<OpOutcome> oracle_replay(const std::vector<TraceOp>& trace,
                                     const Topology& topology,
                                     const ConnectionManager::Params& params,
                                     const CacPolicy& policy) {
  ConnectionManager cm(topology, params, policy);
  std::vector<OpOutcome> outcomes(trace.size());
  std::vector<ConnectionId> ids_by_op(trace.size(), kInvalidConnection);
  std::vector<ConnectionId> deferred;  // teardowns awaiting the next drain
  std::set<ConnectionId> retired;      // records already handed to deferred
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceOp& op = trace[i];
    const ConnectionId id = op.target != TraceOp::kNoTarget
                                ? ids_by_op[op.target]
                                : op.id;
    switch (op.kind) {
      case TraceOp::Kind::kCheck: {
        const auto r = cm.check(op.request, op.route);
        outcomes[i] = OpOutcome{r.accepted, r.reason, r.reject};
        break;
      }
      case TraceOp::Kind::kSetup: {
        const auto r = cm.setup(op.request, op.route);
        ids_by_op[i] = r.accepted ? r.id : kInvalidConnection;
        outcomes[i] = OpOutcome{r.accepted, r.reason, r.reject};
        break;
      }
      case TraceOp::Kind::kTeardown:
        outcomes[i].accepted =
            id != kInvalidConnection && !retired.contains(id) &&
            cm.teardown(id);
        break;
      case TraceOp::Kind::kTeardownDeferred: {
        const bool live = id != kInvalidConnection &&
                          cm.connections().contains(id) &&
                          !retired.contains(id);
        if (live) {
          retired.insert(id);
          deferred.push_back(id);
        }
        outcomes[i].accepted = live;
        break;
      }
      case TraceOp::Kind::kModify: {
        const bool live = id != kInvalidConnection &&
                          cm.connections().contains(id) &&
                          !retired.contains(id);
        if (!live) {
          // Mirror the engine's unknown-id rejection so a MODIFY racing
          // a teardown still compares bit-identically.
          if (id != kInvalidConnection) {
            outcomes[i].reject.code = RejectCode::kNoRoute;
            outcomes[i].reject.detail = "renegotiate: unknown connection id";
            outcomes[i].reason = outcomes[i].reject.detail;
          }
          break;
        }
        const auto r = cm.renegotiate(id, op.request);
        outcomes[i] = OpOutcome{r.accepted, r.reason, r.reject};
        break;
      }
      case TraceOp::Kind::kDrain:
        for (const ConnectionId d : deferred) {
          (void)cm.teardown(d);
          retired.erase(d);
        }
        deferred.clear();
        outcomes[i].accepted = true;
        break;
    }
  }
  return outcomes;
}

bool outcomes_identical(const std::vector<OpOutcome>& got,
                        const std::vector<OpOutcome>& want,
                        const std::string& what) {
  if (got.size() != want.size()) {
    std::cerr << "DECISION MISMATCH [" << what << "]: " << got.size()
              << " outcomes vs " << want.size() << "\n";
    return false;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].accepted != want[i].accepted ||
        got[i].reason != want[i].reason ||
        got[i].reject.code != want[i].reject.code ||
        got[i].reject.hop != want[i].reject.hop) {
      std::cerr << "DECISION MISMATCH [" << what << "] at op " << i << ": got "
                << (got[i].accepted ? "accept" : "reject") << " \""
                << got[i].reason << "\", want "
                << (want[i].accepted ? "accept" : "reject") << " \""
                << want[i].reason << "\"\n";
      return false;
    }
  }
  return true;
}

// Aggregate state-size metric across shards; only safe on a quiesced
// engine.  Bit-stream shards expose the full S_ia machinery, so their
// metric is the total segment count; for other policies (flat per-port
// aggregates, no segment lists) it degrades to live connections.
std::size_t segments_total(const ConcurrentCac& cac) {
  std::size_t total = 0;
  for (std::size_t s = 0; s < cac.shard_count(); ++s) {
    const PolicyCac& point = cac.shard_point(s);
    const SwitchCac* sw = point.bitstream();
    if (sw == nullptr) {
      total += point.connection_count();
      continue;
    }
    for (std::size_t i = 0; i < sw->in_ports(); ++i) {
      for (std::size_t j = 0; j < sw->out_ports(); ++j) {
        for (Priority p = 0; p < sw->priorities(); ++p) {
          total += sw->arrival_aggregate(i, j, p).size();
        }
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

// Audit-build gate on the tentpole promise: a burst of checks against a
// quiesced, fully-published bitstream engine must take ZERO SharedMutex
// acquisitions — the whole burst rides the snapshot read path.  Returns
// true when the promise holds (or cannot be measured in this build).
bool verify_lock_free_checks(const Net& net,
                             const ConnectionManager::Params& params,
                             const std::vector<TraceOp>& trace) {
  if (!LockStats::enabled()) {
    std::cout << "lock-free check gate: skipped (LockStats needs an audit "
                 "build)\n\n";
    return true;
  }
  AdmissionEngine engine(net.topology, params);
  (void)engine.replay(trace, 1);
  Xorshift rng(909);
  std::vector<std::pair<QosRequest, const Route*>> probes;
  for (int i = 0; i < 256; ++i) {
    probes.emplace_back(random_request(rng),
                        &net.routes[rng.below(net.routes.size())]);
  }
  const std::uint64_t shared_before = LockStats::shared_acquisitions();
  const std::uint64_t exclusive_before = LockStats::exclusive_acquisitions();
  for (const auto& [request, route] : probes) {
    (void)engine.check(request, *route);
  }
  const std::uint64_t shared_delta =
      LockStats::shared_acquisitions() - shared_before;
  const std::uint64_t exclusive_delta =
      LockStats::exclusive_acquisitions() - exclusive_before;
  if (shared_delta != 0 || exclusive_delta != 0) {
    std::cerr << "LOCK-FREE CHECK GATE FAILED: " << probes.size()
              << " checks took " << shared_delta << " shared / "
              << exclusive_delta
              << " exclusive SharedMutex acquisitions (want 0/0)\n";
    return false;
  }
  std::cout << "lock-free check gate: PASS (" << probes.size()
            << " checks, zero shared_mutex acquisitions)\n\n";
  return true;
}

int run(bool smoke, const std::string& out_path,
        const std::vector<const CacPolicy*>& policies) {
  bench::BenchJsonWriter json;
  const Net net = make_net();
  const Net wide = make_wide_net();
  const ConnectionManager::Params params = make_params();
  // 24,000 ops per full-run workload: each bitstream row then lasts
  // 0.14-0.53 s on a 4-vCPU VM (peak-policy rows 40-140 ms), long enough
  // for thread scaling to show above scheduler noise.
  const std::size_t ops = smoke ? 48 : 24000;
  const std::vector<std::size_t> thread_counts =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const std::size_t hw = std::thread::hardware_concurrency();

  std::cout << (smoke ? "[smoke] " : "") << "parallel_admission_bench: "
            << kSwitches << "-switch chain (" << net.routes.size()
            << " routes) + " << kWideSwitches << "-switch wide field ("
            << wide.routes.size() << " disjoint routes), " << kPriorities
            << " priorities, hardware_concurrency " << hw << "\n\n";

  struct Workload {
    std::string name;
    const Net* net;
    std::vector<TraceOp> trace;
  };
  const std::vector<Workload> workloads = {
      {"check_only", &net, make_check_only(ops, net)},
      {"churn", &net, make_churn(ops, net, false)},
      {"churn_batched", &net, make_churn(ops, net, true)},
      {"mixed_90_10", &net, make_mixed(ops, net)},
      {"renegotiate_churn", &net, make_renegotiate_churn(ops, net)},
      // The contended block: disjoint single-shard routes over the wide
      // field, where the snapshot read path's scaling is visible.
      {"wide_check_only", &wide, make_check_only(ops * 2, wide)},
  };

  for (const CacPolicy* policy : policies) {
    const std::string policy_name(policy->name());
    for (const Workload& w : workloads) {
      const std::vector<OpOutcome> oracle =
          oracle_replay(w.trace, w.net->topology, params, *policy);
      const std::size_t n_ops = admission_ops(w.trace);
      // Renegotiation block of the record: identical at every thread
      // count by the gate below, so the oracle's stream is the source.
      std::size_t modifies = 0;
      std::size_t modify_admits = 0;
      for (std::size_t i = 0; i < w.trace.size(); ++i) {
        if (w.trace[i].kind != TraceOp::Kind::kModify) continue;
        ++modifies;
        if (oracle[i].accepted) ++modify_admits;
      }
      double wall_serial = 0;
      for (const std::size_t threads : thread_counts) {
        AdmissionEngine engine(w.net->topology, params, *policy);
        std::vector<OpOutcome> outcomes;
        const double wall = time_ns([&] {
          outcomes = engine.replay(w.trace, threads);
        });
        // The gate: every thread count must reproduce the serial oracle's
        // decision stream exactly, and leave coherent state behind.
        if (!outcomes_identical(outcomes, oracle,
                                policy_name + " " + w.name + " t" +
                                    std::to_string(threads))) {
          return 1;
        }
        if (!engine.state_consistent() || !engine.bandwidth_conserved() ||
            !engine.cache_coherent()) {
          std::cerr << "STATE AUDIT FAILED [" << policy_name << " " << w.name
                    << " t" << threads << "]\n";
          return 1;
        }
        if (threads == 1) wall_serial = wall;

        bench::BenchRecord r;
        r.benchmark = w.name + "_t" + std::to_string(threads);
        r.n = n_ops;
        r.wall_ns = wall;
        r.admissions_per_sec =
            wall > 0 ? static_cast<double>(n_ops) * 1e9 / wall : 0;
        r.segments_total = segments_total(engine.core());
        r.threads = threads;
        r.speedup_vs_serial = wall > 0 ? wall_serial / wall : 0;
        r.hardware_concurrency = hw;
        r.policy = policy_name;
        r.modifies = modifies;
        r.modify_admit_rate =
            modifies > 0
                ? static_cast<double>(modify_admits) /
                      static_cast<double>(modifies)
                : 0.0;
        json.add(r);
        std::cout << policy_name << " " << w.name << " t=" << threads << ": "
                  << wall / static_cast<double>(n_ops) / 1e3
                  << " us/op, speedup " << r.speedup_vs_serial << "x\n";
      }
      std::cout << "\n";
    }
  }

  if (!verify_lock_free_checks(wide, params, workloads.back().trace)) {
    return 1;
  }

  if (!json.write(out_path)) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << json.records().size() << " records to " << out_path
            << "\n";
  std::cout << "decision-identity gate: PASS (all policies, all workloads, "
               "all thread counts match the serial oracle)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_parallel.json";
  std::string policy_arg = "bitstream";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--policy" && i + 1 < argc) {
      policy_arg = argv[++i];
    } else {
      std::cerr << "usage: parallel_admission_bench [--smoke] [--out PATH] "
                   "[--policy bitstream|peak|max_rate|all]\n";
      return 2;
    }
  }
  std::vector<const rtcac::CacPolicy*> policies;
  if (policy_arg == "all") {
    for (const char* name : {"bitstream", "peak", "max_rate"}) {
      policies.push_back(rtcac::find_policy(name));
    }
  } else {
    const rtcac::CacPolicy* policy = rtcac::find_policy(policy_arg);
    if (policy == nullptr) {
      std::cerr << "error: unknown policy \"" << policy_arg
                << "\" (want bitstream, peak, max_rate or all)\n";
      return 2;
    }
    policies.push_back(policy);
  }
  return run(smoke, out_path, policies);
}
