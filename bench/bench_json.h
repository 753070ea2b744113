// Minimal machine-readable benchmark output: every perf harness in bench/
// appends BenchRecord rows and writes one JSON array, so each PR lands a
// comparable trajectory point (BENCH_admission.json; docs/PERFORMANCE.md).
//
// Schema, one object per record:
//   {"benchmark": str,            // scenario name, e.g. "churn_cached_n256"
//    "n": int,                    // problem size (connections, streams, ...)
//    "wall_ns": number,           // total wall time of the timed section
//    "admissions_per_sec": number,// ops / wall seconds for the scenario
//    "segments_total": int,       // aggregate segment count (state size)
//    "threads": int,              // optional: worker threads (parallel runs)
//    "speedup_vs_serial": number, // optional: wall(1 thread) / wall(threads)
//    "hardware_concurrency": int, // optional: hw threads of the runner
//    "policy": str,               // optional: CacPolicy name (bitstream, ...)
//    "variant": str,              // optional: aggregate mode (exact|coalesced)
//    "false_reject_rate": number, // optional: coalesced-only rejections /
//                                 //   probes (conservatism cost)
//    "arena_bytes": int,          // optional: merge-tree node-buffer bytes
//    "segments_high_water": int,  // optional: peak live segments (trees)
//    "rss_peak_kb": int,          // optional: process peak RSS (getrusage)
//    "modifies": int,             // optional: in-place renegotiations run
//    "modify_admit_rate": number} // optional: admitted modifies / modifies
//
// The `threads`/`speedup_vs_serial` keys are emitted only when `threads`
// is nonzero and `policy` only when non-empty (i.e. by the thread-scaling
// harness, bench/parallel_admission_bench); `hardware_concurrency` rides
// along whenever it is nonzero, so speedup columns carry the runner's
// core count for honest cross-machine comparison.  Single-threaded
// harnesses keep the original five-key schema.  The `variant` block
// (variant/false_reject_rate/arena_bytes/segments_high_water/rss_peak_kb)
// is emitted only when `variant` is non-empty — i.e. by the merge-tree
// scaling sweep in bench/cac_admission_bench; `false_reject_rate` is the
// fraction of probe candidates the coalesced (conservative) check
// rejects while the exact oracle admits, 0 for exact rows.  The
// renegotiation block (`modifies`/`modify_admit_rate`) is emitted only
// when `modifies` is nonzero — i.e. by the renegotiate_churn workloads,
// where it records how many in-place MODIFY transactions the timed
// section ran and what fraction the combined-load check admitted.
//
// Header-only and dependency-free on purpose: bench binaries link only
// the library under test, so the writer cannot perturb what it measures.

#pragma once

#include <cmath>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace rtcac::bench {

struct BenchRecord {
  std::string benchmark;
  std::size_t n = 0;
  double wall_ns = 0.0;
  double admissions_per_sec = 0.0;
  std::size_t segments_total = 0;
  /// Worker threads used for the timed section; 0 = single-threaded
  /// harness (the `threads`/`speedup_vs_serial` keys are then omitted).
  std::size_t threads = 0;
  /// wall_ns of the 1-thread run of the same scenario divided by this
  /// record's wall_ns; meaningful only when threads > 0.
  double speedup_vs_serial = 0.0;
  /// std::thread::hardware_concurrency() of the machine that produced
  /// the record; 0 (unknown) omits the key.
  std::size_t hardware_concurrency = 0;
  /// CacPolicy driving the run (core/path_eval.h); empty = key omitted.
  std::string policy;
  /// Aggregate mode of the merge-tree scaling sweep ("exact" or
  /// "coalesced"); empty = the whole variant block is omitted.
  std::string variant;
  /// Fraction of probe candidates rejected by the coalesced check but
  /// admitted by the exact oracle (conservatism cost; 0 for exact rows).
  double false_reject_rate = 0.0;
  /// Segment bytes held by the merge trees' node buffers after the run.
  std::size_t arena_bytes = 0;
  /// High-water mark of live segments held across all merge trees.
  std::size_t segments_high_water = 0;
  /// Peak resident set size of the process in KiB (getrusage ru_maxrss);
  /// 0 where unavailable.
  std::size_t rss_peak_kb = 0;
  /// In-place renegotiations (MODIFY DeltaTransactions) executed in the
  /// timed section; 0 = the renegotiation block is omitted.
  std::size_t modifies = 0;
  /// Fraction of those the combined-load check admitted.
  double modify_admit_rate = 0.0;
};

/// Collects records and serializes them as a JSON array.  Strings are
/// escaped, non-finite numbers clamped to 0 (JSON has no NaN/Inf), so the
/// output always parses.
class BenchJsonWriter {
 public:
  void add(BenchRecord record) { records_.push_back(std::move(record)); }

  [[nodiscard]] const std::vector<BenchRecord>& records() const {
    return records_;
  }

  [[nodiscard]] std::string to_json() const {
    std::ostringstream os;
    os.precision(17);
    os << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      os << "  {\"benchmark\": \"" << escape(r.benchmark) << "\", "
         << "\"n\": " << r.n << ", "
         << "\"wall_ns\": " << finite(r.wall_ns) << ", "
         << "\"admissions_per_sec\": " << finite(r.admissions_per_sec) << ", "
         << "\"segments_total\": " << r.segments_total;
      if (r.threads > 0) {
        os << ", \"threads\": " << r.threads << ", "
           << "\"speedup_vs_serial\": " << finite(r.speedup_vs_serial);
      }
      if (r.hardware_concurrency > 0) {
        os << ", \"hardware_concurrency\": " << r.hardware_concurrency;
      }
      if (!r.policy.empty()) {
        os << ", \"policy\": \"" << escape(r.policy) << "\"";
      }
      if (!r.variant.empty()) {
        os << ", \"variant\": \"" << escape(r.variant) << "\", "
           << "\"false_reject_rate\": " << finite(r.false_reject_rate) << ", "
           << "\"arena_bytes\": " << r.arena_bytes << ", "
           << "\"segments_high_water\": " << r.segments_high_water << ", "
           << "\"rss_peak_kb\": " << r.rss_peak_kb;
      }
      if (r.modifies > 0) {
        os << ", \"modifies\": " << r.modifies << ", "
           << "\"modify_admit_rate\": " << finite(r.modify_admit_rate);
      }
      os << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    os << "]\n";
    return os.str();
  }

  /// Writes the array to `path`; returns false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << to_json();
    return static_cast<bool>(out);
  }

 private:
  static double finite(double v) { return std::isfinite(v) ? v : 0.0; }

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\t':
          out += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            std::ostringstream esc;
            esc << "\\u00" << std::hex << (c < 16 ? "0" : "")
                << static_cast<int>(c);
            out += esc.str();
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  std::vector<BenchRecord> records_;
};

}  // namespace rtcac::bench
