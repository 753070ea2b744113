// Machine-speed calibration pass.
//
// The benchmark runs on shared virtual machines whose speed drifts with
// the neighbours' load; the drift moves every timing of a run together.
// A short pass owned by the benchmark is timed before each set-up and
// after each window of the timed section, and every timing is scaled by
// kNominalPassNs / (median pass time).  A pass has two halves, matching
// the two resource profiles of the workloads: a dependent random walk over
// 32 MiB (memory latency, like signaling's large maps and trace) and an
// ordered map of small vectors sorted as they fill (pointer chasing,
// allocation and comparisons, like the admission checks).  Its time is the
// geometric mean of the halves.  The pass runs none of the program's code,
// allocates only from buffers it owns and warms them first, so its time
// depends on the machine, not on the program's heap or what the program
// left in the caches.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cacbench {

class Calibration {
 public:
  /// Median pass time on the reference machine (README.md, "Noise").
  static constexpr double kNominalPassNs = 9.0e6;

  Calibration();

  /// Runs one timed pass and records its duration.
  void pass();

  [[nodiscard]] std::size_t passes() const noexcept { return times_ns_.size(); }
  [[nodiscard]] const std::vector<double>& times_ns() const noexcept {
    return times_ns_;
  }
  /// Median of the recorded pass times (ns).
  [[nodiscard]] double median_ns() const;
  /// Factor that maps a raw timing onto the nominal machine speed.
  [[nodiscard]] double scale() const { return kNominalPassNs / median_ns(); }
  /// Sum of values the passes computed; printed so the passes cannot be
  /// optimised away.
  [[nodiscard]] std::uint64_t checksum() const noexcept { return sink_; }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::byte> arena_;
  std::vector<double> times_ns_;
  std::uint64_t sink_ = 0;
};

}  // namespace cacbench
