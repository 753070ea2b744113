// The three benchmark workloads over the paper's RTnet (§5): a 16-node
// dual star-ring with 16 terminals per node.
//
//   churn            ConnectionManager, 1 client: each op SETUPs a fresh
//                    VBR request; an admitted SETUP tears down a random
//                    live connection.
//   probe            AdmissionEngine, 1 client: nine commit-free check()
//                    what-if queries per SETUP; the SETUP replaces a live
//                    connection as in churn.
//   signaling_lossy  SignalingEngine under a seeded FaultInjector, K
//                    requests in flight on the virtual clock: two in three
//                    SETUP a CBR cyclic connection (an admitted one
//                    RELEASEs a random live connection), one in three
//                    MODIFYs a live connection's rate.
//
// Every op stream is generated from the seed before anything is timed.
// The standing population is admitted during set-up and stays constant:
// a teardown only ever follows an admitted SETUP.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/path_eval.h"
#include "net/connection_manager.h"
#include "rtnet/rtnet.h"
#include "tracing.h"

namespace cacbench {

enum class Workload { kChurn, kProbe, kSignalingLossy };

[[nodiscard]] const char* to_string(Workload workload) noexcept;

/// Sizes of one run; the timed op count is derived from --seconds.
struct Sizes {
  std::size_t population = 0;  ///< standing connections
  std::size_t warmup_ops = 0;
  std::size_t timed_ops = 0;
  std::size_t in_flight = 1;   ///< concurrent requests (signaling only)
};

[[nodiscard]] Sizes sizes_for(Workload workload, double seconds);

/// The admission parameters every engine of the benchmark runs with.
[[nodiscard]] rtcac::ConnectionManager::Params admission_params();

struct Request {
  rtcac::QosRequest qos;
  rtcac::Route route;
  std::uint32_t hops = 0;  ///< queueing points (ring links) of the route
};

struct Op {
  enum class Kind : std::uint8_t { kSetup, kCheck, kModify };
  Kind kind = Kind::kSetup;
  /// kSetup/kCheck: the request.  kModify: unused (see rate_factor).
  Request request;
  /// kModify: new PCR/SCR = old × rate_factor, same priority and deadline.
  double rate_factor = 1;
  /// Uniform draw picking the replaced (kSetup) or renegotiated (kModify)
  /// live connection; reduced modulo the population when used.
  std::uint32_t draw = 0;
};

struct OpStream {
  std::vector<Request> population;  ///< candidates, admitted in order
  std::vector<Op> warmup;
  std::vector<Op> timed;
};

[[nodiscard]] OpStream generate(Workload workload, const rtcac::Rtnet& net,
                                const Sizes& sizes, std::uint64_t seed);

/// One request's outcome.  `failed` means no verdict (signaling timeout).
struct Verdict {
  Op::Kind kind = Op::Kind::kSetup;
  bool admitted = false;
  bool failed = false;
  rtcac::RejectCode code = rtcac::RejectCode::kNone;
  std::size_t hop = rtcac::RejectReason::kNoHop;
  std::uint64_t reason_hash = 0;
  std::uint32_t hops = 0;  ///< queueing points of the request's route

  friend bool operator==(const Verdict&, const Verdict&) = default;
};

[[nodiscard]] Verdict make_verdict(Op::Kind kind, bool admitted,
                                   const rtcac::RejectReason& reject,
                                   std::uint32_t hops);
[[nodiscard]] std::uint64_t digest(std::span<const Verdict> verdicts);

/// What the timed ops of one window produced.
struct Recorder {
  std::vector<Verdict> verdicts;
  std::vector<double> latency_ns;     ///< per verdict, request to verdict
  std::vector<double> connect_ticks;  ///< signaling: virtual time to verdict
};

/// Outcome of the correctness gates; `failures` is empty when all pass.
struct GateReport {
  std::vector<std::string> failures;
  std::size_t checks = 0;
  void expect(bool ok, const std::string& what) {
    ++checks;
    if (!ok) failures.push_back(what);
  }
};

/// Signaling-layer counters of a timed section.
struct SignalingStats {
  std::size_t trace_messages = 0;  ///< messages processed so far
  std::size_t retransmits = 0;
  std::size_t attempts = 0;
  std::size_t stale_dropped = 0;
  std::size_t releases_reconciled = 0;  ///< lost RELEASEs torn down centrally
};

/// Merge-tree/arena counters summed over every switch.
struct ArenaTotals {
  std::size_t acquires = 0;
  std::size_t reuses = 0;
  std::size_t held_segments = 0;
  std::size_t reservations = 0;  ///< hop reservations held
};

/// One engine plus the benchmark's single-client loop around it.
class Client {
 public:
  virtual ~Client() = default;

  /// Builds the engine on `policy`, admits the standing population and
  /// runs the warm-up ops.  This is what setup_s measures.
  virtual void setup(const OpStream& ops, const rtcac::CacPolicy& policy) = 0;

  /// Runs `ops` through the engine, appending to `out`.  Spans go to
  /// `tracer` when it is non-null and armed.
  virtual void run(std::span<const Op> ops, Recorder& out, Tracer* tracer) = 0;

  /// Quiesces the engine and checks the end-state invariants.
  /// `break_expectation` corrupts one expectation so the gate must fail
  /// (self-test hook; only the signaling client holds an expectation of
  /// its own, the others are checked by replay_gate).
  virtual void end_state_gates(GateReport& report, bool break_expectation) = 0;

  /// The verdict an independent oracle gives `op` against the engine's
  /// current state, or nullopt when this client has none.  The churn
  /// client walks the route with SwitchCac::check_from_scratch, the
  /// frozen pre-optimisation fold, at every hop.
  [[nodiscard]] virtual std::optional<Verdict> oracle_verdict(
      const Op& /*op*/) const {
    return std::nullopt;
  }

  [[nodiscard]] virtual ArenaTotals arena_totals() const = 0;
  [[nodiscard]] virtual SignalingStats signaling_stats() const { return {}; }
};

/// The engine client of `workload` (churn: ConnectionManager, probe:
/// AdmissionEngine, signaling_lossy: SignalingEngine).
[[nodiscard]] std::unique_ptr<Client> make_client(Workload workload,
                                                  const rtcac::Rtnet& net,
                                                  const Sizes& sizes,
                                                  std::uint64_t seed);

/// Probe only: replays the op stream through a ConnectionManager and
/// checks that every verdict of `timed` is identical to the replay's.
/// (Churn is checked against Client::oracle_verdict samples during the
/// run; signaling_lossy by its end-state gates.)  `break_expectation`
/// corrupts one expected verdict so the gate must fail (self-test hook).
void replay_gate(const rtcac::Rtnet& net, const Sizes& sizes,
                 const OpStream& ops, std::span<const Verdict> timed,
                 bool break_expectation, GateReport& report);

}  // namespace cacbench
