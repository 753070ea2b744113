// cacbench: end-to-end admission benchmark over the paper's RTnet.
//
//   cacbench --workload churn|probe|signaling_lossy --seed N --seconds S
//            --trace 0|1 [--break-gate] [--trace-dir DIR]
//
// One process, one client thread.  The op stream is generated from the
// seed before anything is timed; set-up (engine construction, standing
// population, warm-up) is timed five times and its median reported; the
// timed section runs the fixed op count in ten windows with a calibration
// pass between windows.  Correctness gates run after the timed section;
// any failure exits 1.  With --trace 1 a second engine, built on the
// tracing policy decorator, replays the same op stream, must reproduce
// the untraced verdict digest, and its spans give the per-layer metrics.
// The last stdout line is the JSON result (README.md).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "calibration.h"
#include "rtnet/rtnet.h"
#include "tracing.h"
#include "util/log.h"
#include "workloads.h"

namespace cacbench {
namespace {

constexpr std::size_t kSetupRepetitions = 5;
constexpr std::size_t kWindows = 10;
/// One timed op in this many is checked against the client's oracle; the
/// sampled ops are a small enough share (0.2%) not to move p99.
constexpr std::size_t kOracleStride = 500;

struct Args {
  Workload workload = Workload::kChurn;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool break_gate = false;
  std::string trace_dir = ".cacbench";
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "cacbench: %s\nusage: cacbench --workload "
               "churn|probe|signaling_lossy --seed N --seconds S --trace 0|1 "
               "[--break-gate] [--trace-dir DIR]\n",
               problem.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--break-gate") {
      args.break_gate = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (value == "churn") {
        args.workload = Workload::kChurn;
      } else if (value == "probe") {
        args.workload = Workload::kProbe;
      } else if (value == "signaling_lossy") {
        args.workload = Workload::kSignalingLossy;
      } else {
        usage("unknown workload " + value);
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0) ||
          args.seconds > 600) {
        usage("bad seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad trace " + value);
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  return args;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(const std::vector<double>& values) {
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A /proc/self/status memory field (VmHWM: peak resident set, VmRSS:
/// current), in bytes.
double status_bytes(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return 1024.0 * std::strtod(line.c_str() + field.size(), nullptr);
    }
  }
  throw std::runtime_error(field + " not found in /proc/self/status");
}

/// Allocates and touches the result buffers up front, so that filling
/// them adds nothing to the resident set the engine is charged with.
void preallocate(Recorder& rec, std::size_t ops) {
  rec.verdicts.resize(ops);
  rec.verdicts.clear();
  rec.latency_ns.resize(ops);
  rec.latency_ns.clear();
  rec.connect_ticks.resize(ops);
  rec.connect_ticks.clear();
}

/// Measured intervals of a timed section, and each window's total.
struct Section {
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  std::vector<double> window_ns;

  [[nodiscard]] double total_ns() const {
    double total = 0;
    for (const double ns : window_ns) total += ns;
    return total;
  }
};

/// Runs the timed ops in kWindows windows with a calibration pass after
/// each.  With an `oracle` report, every kOracleStride-th op is first
/// judged by the client's oracle outside the measured intervals, and the
/// engine's verdict for it must match (`break_expectation` flips the
/// first expected verdict, for the self-test).
Section run_section(Client& client, const std::vector<Op>& ops, Recorder& out,
                    Calibration& calibration, Tracer* tracer,
                    GateReport* oracle, bool break_expectation) {
  Section section;
  const std::size_t n = ops.size();
  // Only a client with an oracle has its windows cut into chunks: cutting
  // would change the interleaving of signaling's requests in flight.
  const bool sampled = oracle != nullptr && n > 0 &&
                       client.oracle_verdict(ops.front()).has_value();
  const std::size_t stride = sampled ? kOracleStride : n;
  std::size_t samples = 0;
  std::size_t mismatches = 0;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const std::size_t window_end = n * (w + 1) / kWindows;
    double window_ns = 0;
    for (std::size_t begin = n * w / kWindows; begin < window_end;
         begin += stride) {
      const std::size_t end = std::min(window_end, begin + stride);
      std::optional<Verdict> expected =
          sampled ? client.oracle_verdict(ops[begin]) : std::nullopt;
      if (expected.has_value() && break_expectation && samples == 0) {
        expected->admitted = !expected->admitted;
      }
      const std::size_t index = out.verdicts.size();
      if (tracer != nullptr) tracer->arm(true);
      const std::int64_t start = now_ns();
      client.run(std::span<const Op>(ops).subspan(begin, end - begin), out,
                 tracer);
      const std::int64_t stop = now_ns();
      if (tracer != nullptr) tracer->arm(false);
      section.intervals.emplace_back(start, stop);
      window_ns += static_cast<double>(stop - start);
      if (expected.has_value()) {
        ++samples;
        mismatches += out.verdicts.at(index) == *expected ? 0 : 1;
      }
    }
    section.window_ns.push_back(window_ns);
    calibration.pass();
  }
  if (sampled) {
    oracle->expect(mismatches == 0,
                   "sampled verdicts identical to the check_from_scratch "
                   "oracle (" + std::to_string(mismatches) + " of " +
                       std::to_string(samples) + " differ)");
  }
  return section;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string json_number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite metric");
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

struct VerdictCounts {
  std::size_t decided = 0;
  std::size_t admitted = 0;
  std::size_t failed = 0;
  std::size_t admitted_hops = 0;  ///< hop checks an admitted walk needs
  std::size_t commits = 0;        ///< admitted SETUPs/MODIFYs + teardowns
  std::size_t replaced = 0;       ///< admitted SETUPs: each replaces one
  std::size_t deadline_rejects = 0;  ///< refused at the deadline split
};

VerdictCounts count(const std::vector<Verdict>& verdicts) {
  VerdictCounts c;
  for (const Verdict& v : verdicts) {
    if (v.failed) {
      ++c.failed;
      continue;
    }
    ++c.decided;
    if (!v.admitted) {
      c.deadline_rejects += v.code == rtcac::RejectCode::kDeadline ? 1 : 0;
      continue;
    }
    ++c.admitted;
    c.admitted_hops += v.hops;
    if (v.kind == Op::Kind::kSetup) {
      c.commits += 2;  // admit + replacement
      ++c.replaced;
    }
    if (v.kind == Op::Kind::kModify) c.commits += 1;
  }
  return c;
}

std::vector<double> decided_latencies(const Recorder& rec) {
  std::vector<double> out;
  out.reserve(rec.latency_ns.size());
  for (std::size_t i = 0; i < rec.verdicts.size(); ++i) {
    if (!rec.verdicts[i].failed) out.push_back(rec.latency_ns[i]);
  }
  return out;
}

int run(const Args& args) {
  rtcac::Log::set_level(rtcac::LogLevel::kError);
  const rtcac::Rtnet net(rtcac::RtnetConfig{16, 16, true, false});
  const Sizes sizes = sizes_for(args.workload, args.seconds);
  const OpStream ops = generate(args.workload, net, sizes, args.seed);
  const char* name = to_string(args.workload);
  std::printf("cacbench workload=%s seed=%llu population=%zu warmup_ops=%zu "
              "timed_ops=%zu in_flight=%zu trace=%d\n",
              name, static_cast<unsigned long long>(args.seed),
              sizes.population, sizes.warmup_ops, sizes.timed_ops,
              sizes.in_flight, args.trace ? 1 : 0);

  Calibration calibration;
  const rtcac::CacPolicy& plain = rtcac::BitstreamCacPolicy::instance();
  Recorder rec;
  preallocate(rec, ops.timed.size());
  // The op stream, calibration buffer and result buffers are the
  // benchmark's own; peak_rss_mb counts what the engine adds on top.
  const double baseline_rss = status_bytes("VmRSS:");

  // --- set-up, repeated; the last engine is the one that gets timed ----
  std::vector<double> setup_ns;
  std::unique_ptr<Client> client;
  for (std::size_t r = 0; r < kSetupRepetitions; ++r) {
    calibration.pass();
    client.reset();
    const std::int64_t start = now_ns();
    client = make_client(args.workload, net, sizes, args.seed);
    client->setup(ops, plain);
    setup_ns.push_back(static_cast<double>(now_ns() - start));
  }
  calibration.pass();

  // --- timed section ----------------------------------------------------
  GateReport gates;
  const Section section =
      run_section(*client, ops.timed, rec, calibration, nullptr, &gates,
                  args.break_gate && args.workload == Workload::kChurn);
  const double engine_rss = status_bytes("VmHWM:") - baseline_rss;
  const double untraced_ns = section.total_ns();

  // --- correctness gates (outside the timed section) -------------------
  client->end_state_gates(gates, args.break_gate &&
                                     args.workload ==
                                         Workload::kSignalingLossy);
  if (args.workload == Workload::kProbe) {
    replay_gate(net, sizes, ops, rec.verdicts, args.break_gate, gates);
  }
  client.reset();

  const VerdictCounts counts = count(rec.verdicts);
  const std::uint64_t untraced_digest = digest(rec.verdicts);
  gates.expect(rec.verdicts.size() == ops.timed.size(),
               "one verdict per timed op");

  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> raw;  // printed beside
  if (!args.trace) {
    const double scale = calibration.scale();
    const std::vector<double> latencies = decided_latencies(rec);
    const double p50 = quantile(latencies, 0.50);
    const double p99 = quantile(latencies, 0.99);
    const double setup = median(setup_ns);
    const double rate = ratio(static_cast<double>(counts.decided),
                              untraced_ns * 1e-9);
    metrics = {
        {"decisions_per_s", rate / scale, "1/s"},
        {"decision_p50_us", p50 * scale * 1e-3, "us"},
        {"decision_p99_us", p99 * scale * 1e-3, "us"},
        {"admit_ratio", ratio(static_cast<double>(counts.admitted),
                              static_cast<double>(counts.decided)),
         "ratio"},
        {"verdict_ratio", ratio(static_cast<double>(counts.decided),
                                static_cast<double>(rec.verdicts.size())),
         "ratio"},
        {"setup_s", setup * scale * 1e-9, "s"},
        {"peak_rss_mb", engine_rss / (1024.0 * 1024.0), "MB"},
    };
    raw = {{"decisions_per_s", rate},
           {"decision_p50_us", p50 * 1e-3},
           {"decision_p99_us", p99 * 1e-3},
           {"setup_s", setup * 1e-9}};
    std::printf("latency samples=%zu (p99 has %zu beyond it)\n",
                latencies.size(), latencies.size() / 100);
    std::printf("rejects=%zu (deadline %zu, hop %zu)\n",
                counts.decided - counts.admitted, counts.deadline_rejects,
                counts.decided - counts.admitted - counts.deadline_rejects);
    // Windowed throughput (RateCalculator idiom): a slowdown as trees and
    // arenas grow shows as a trend across the windows.
    std::printf("window_decisions_per_s");
    std::vector<double> window_rates;
    std::size_t verdict_begin = 0;
    const std::size_t windows = section.window_ns.size();
    for (std::size_t w = 0; w < windows; ++w) {
      const std::size_t verdict_end = rec.verdicts.size() * (w + 1) / windows;
      std::size_t decided = 0;
      for (std::size_t i = verdict_begin; i < verdict_end; ++i) {
        decided += rec.verdicts[i].failed ? 0 : 1;
      }
      verdict_begin = verdict_end;
      const double ns = section.window_ns[w];
      window_rates.push_back(ratio(static_cast<double>(decided), ns * 1e-9) /
                             scale);
      std::printf(" %.1f", window_rates.back());
    }

    std::printf("\nwindow_last_to_first_ratio %.4f\nwindow_ms",
                ratio(window_rates.back(), window_rates.front()));
    for (const double ns : section.window_ns) std::printf(" %.3f", ns * 1e-6);
    std::printf("\n");
  }

  // --- traced run: same op stream, spans on every layer boundary -------
  std::uint64_t traced_digest = 0;
  if (args.trace) {
    Tracer tracer;
    const TracingPolicy traced_policy(plain, tracer);
    std::unique_ptr<Client> traced = make_client(args.workload, net, sizes,
                                                 args.seed);
    traced->setup(ops, traced_policy);
    calibration.pass();
    const ArenaTotals arena_before = traced->arena_totals();
    const SignalingStats sig_before = traced->signaling_stats();
    Recorder traced_rec;
    preallocate(traced_rec, ops.timed.size());
    const Section traced_section = run_section(
        *traced, ops.timed, traced_rec, calibration, &tracer, nullptr, false);
    const ArenaTotals arena_after = traced->arena_totals();
    const SignalingStats sig_after = traced->signaling_stats();
    traced->end_state_gates(gates, false);
    traced.reset();

    traced_digest = digest(traced_rec.verdicts);
    gates.expect(traced_digest == untraced_digest,
                 "traced verdicts identical to the untraced run");
    const Breakdown b = analyse(tracer, traced_section.intervals);
    const double scale = calibration.scale();
    const VerdictCounts tc = count(traced_rec.verdicts);
    const auto decided = static_cast<double>(tc.decided);
    const auto calls = [&](SpanName n) {
      return static_cast<double>(b.calls[static_cast<std::size_t>(n)]);
    };
    const auto self_us = [&](SpanName n) {
      return b.self_ns[static_cast<std::size_t>(n)] * scale * 1e-3;
    };
    const auto share = [&](Layer l) {
      return b.layer_self_ns[static_cast<std::size_t>(l)] / b.section_ns;
    };
    // The layer self times and the unattributed remainder add up to the
    // section by construction.  What can go wrong is an engine call made
    // outside a root span: its own time would count as benchmark loop and
    // its policy calls would be roots.  So the root spans must be engine
    // calls, one per timed request and one per replacement teardown.
    const double requests =
        calls(SpanName::kCmSetup) + calls(SpanName::kCmCheck) +
        calls(SpanName::kAeSetup) + calls(SpanName::kAeCheck) +
        calls(SpanName::kSigInitiate) + calls(SpanName::kSigModify);
    const double teardowns = calls(SpanName::kCmTeardown) +
                             calls(SpanName::kAeTeardown) +
                             calls(SpanName::kSigRelease);
    const auto reconciled = static_cast<double>(
        sig_after.releases_reconciled - sig_before.releases_reconciled);
    gates.expect(b.unwrapped_calls == 0 &&
                     requests == static_cast<double>(ops.timed.size()) &&
                     teardowns == static_cast<double>(tc.replaced) + reconciled,
                 "every engine call of the traced section is a root span");

    const double checks = calls(SpanName::kCheck) +
                          calls(SpanName::kSnapshotCheck);
    const double removes =
        calls(SpanName::kRemove) + calls(SpanName::kRemoveMany);
    const double engine_self_us =
        (b.layer_self_ns[static_cast<std::size_t>(Layer::kConnectionManager)] +
         b.layer_self_ns[static_cast<std::size_t>(Layer::kAdmissionEngine)] +
         b.layer_self_ns[static_cast<std::size_t>(Layer::kSignaling)]) *
        scale * 1e-3;
    const double sig_attempts =
        static_cast<double>(sig_after.attempts - sig_before.attempts);
    metrics = {
        {"switch_cac.share", share(Layer::kSwitchCac), "ratio"},
        {"switch_cac.checks_per_decision",
         ratio(calls(SpanName::kCheck), decided), "count"},
        {"point_snapshot.share", share(Layer::kPointSnapshot), "ratio"},
        {"point_snapshot.checks_per_decision",
         ratio(calls(SpanName::kSnapshotCheck), decided), "count"},
        {"hop_check.us",
         ratio(self_us(SpanName::kCheck) + self_us(SpanName::kSnapshotCheck),
               checks),
         "us"},
        {"hop_check.useful_ratio",
         ratio(static_cast<double>(tc.admitted_hops), checks), "ratio"},
        {"concurrent_cac.share", share(Layer::kConcurrentCac), "ratio"},
        {"concurrent_cac.exports_per_commit",
         ratio(calls(SpanName::kExport), static_cast<double>(tc.commits)),
         "count"},
        {"merge_tree.share", share(Layer::kMergeTree), "ratio"},
        {"merge_tree.add_us", ratio(self_us(SpanName::kAdd), calls(SpanName::kAdd)),
         "us"},
        {"merge_tree.remove_us",
         ratio(self_us(SpanName::kRemove) + self_us(SpanName::kRemoveMany),
               removes),
         "us"},
        {"merge_tree.mutations_per_decision",
         ratio(calls(SpanName::kAdd) + removes, decided), "count"},
        {"stream_arena.reuse_ratio",
         ratio(static_cast<double>(arena_after.reuses - arena_before.reuses),
               static_cast<double>(arena_after.acquires -
                                   arena_before.acquires)),
         "ratio"},
        {"stream_arena.segments_per_connection",
         ratio(static_cast<double>(arena_after.held_segments),
               static_cast<double>(arena_after.reservations)),
         "count"},
        {"traffic.share", share(Layer::kTraffic), "ratio"},
        {"traffic.prepare_us",
         ratio(self_us(SpanName::kPrepare), calls(SpanName::kPrepare)), "us"},
        {"traffic.prepares_per_decision",
         ratio(calls(SpanName::kPrepare), decided), "count"},
        {"policy_state.share", share(Layer::kPolicyState), "ratio"},
        {"connection_manager.share", share(Layer::kConnectionManager),
         "ratio"},
        {"admission_engine.share", share(Layer::kAdmissionEngine), "ratio"},
        {"signaling.share", share(Layer::kSignaling), "ratio"},
        {"engine.self_us_per_decision", ratio(engine_self_us, decided), "us"},
        {"signaling.messages_per_decision",
         ratio(static_cast<double>(sig_after.trace_messages -
                                   sig_before.trace_messages),
               decided),
         "count"},
        {"signaling.retransmit_ratio",
         ratio(static_cast<double>(sig_after.retransmits -
                                   sig_before.retransmits),
               sig_attempts),
         "ratio"},
        {"signaling.stale_dropped",
         static_cast<double>(sig_after.stale_dropped -
                             sig_before.stale_dropped),
         "count"},
        {"signaling.releases_reconciled",
         static_cast<double>(sig_after.releases_reconciled -
                             sig_before.releases_reconciled),
         "count"},
        {"signaling.trace_messages",
         static_cast<double>(sig_after.trace_messages), "count"},
        {"signaling.connect_ticks_p50",
         quantile(traced_rec.connect_ticks, 0.50), "ticks"},
        {"signaling.connect_ticks_p99",
         quantile(traced_rec.connect_ticks, 0.99), "ticks"},
        {"trace.overhead_ratio", b.section_ns / untraced_ns, "ratio"},
        {"trace.unattributed_share", (b.section_ns - b.root_ns) / b.section_ns,
         "ratio"},
        {"trace.spans_per_decision",
         ratio(static_cast<double>(b.spans), decided), "count"},
    };
    std::printf("traced section: %.3f s, %zu spans, untraced %.3f s\n",
                b.section_ns * 1e-9, b.spans, untraced_ns * 1e-9);
    std::printf("%-32s %10s %8s %12s\n", "span", "calls", "share",
                "self_us/call");
    for (std::size_t k = 0; k < b.calls.size(); ++k) {
      if (b.calls[k] == 0) continue;
      std::printf("%-32s %10zu %8.4f %12.4f\n",
                  to_string(static_cast<SpanName>(k)), b.calls[k],
                  b.self_ns[k] / b.section_ns,
                  b.self_ns[k] * 1e-3 / static_cast<double>(b.calls[k]));
    }
    std::filesystem::create_directories(args.trace_dir);
    const std::string path = args.trace_dir + "/trace_" + name + ".tsv";
    write_spans(path, tracer);
    std::printf("spans written to %s\n", path.c_str());
  }

  std::printf("calibration passes=%zu median_ms=%.3f scale=%.4f "
              "checksum=%llu\n",
              calibration.passes(), calibration.median_ns() * 1e-6,
              calibration.scale(),
              static_cast<unsigned long long>(calibration.checksum()));
  std::printf("calibration_ms");
  for (const double ns : calibration.times_ns()) std::printf(" %.3f", ns * 1e-6);
  std::printf("\nsetup_s_raw");
  for (const double ns : setup_ns) std::printf(" %.4f", ns * 1e-9);
  std::printf("\ndigest %016llx", static_cast<unsigned long long>(untraced_digest));
  if (args.trace) {
    std::printf(" traced_digest %016llx",
                static_cast<unsigned long long>(traced_digest));
  }
  std::printf(" gates_checked=%zu\n", gates.checks);
  for (const auto& [metric, value] : raw) {
    std::printf("raw %s %.6g\n", metric.c_str(), value);
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::map<std::string, std::size_t> failures;
  for (const std::string& failure : gates.failures) ++failures[failure];
  for (const auto& [failure, times] : failures) {
    std::fprintf(stderr, "GATE FAILED (%zux): %s\n", times, failure.c_str());
  }
  const bool correct = gates.failures.empty();
  print_result(correct, rec.verdicts.size(), counts.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cacbench

int main(int argc, char** argv) {
  const cacbench::Args args = cacbench::parse(argc, argv);
  try {
    return cacbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cacbench: %s\n", e.what());
    return 1;
  }
}
