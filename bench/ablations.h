// The computations behind ablations A1 and A2 (EXPERIMENTS.md), shared by
// the bench binaries that print them (ablation_filtering,
// ablation_peak_alloc) and the `paper` ctest that pins their numbers.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rtcac::ablation {

/// A1(a): bits one CBR(0.2) stream is credited with at t = CDV under the
/// exact distortion and under the instantaneous-burst upper bound.
struct DistortionRow {
  double cdv = 0;
  double exact_burst = 0;        ///< cells
  double upper_bound_burst = 0;  ///< cells
};

[[nodiscard]] std::vector<DistortionRow> a1_distortion();

/// A1(b): CBR(0.02) connections admitted on a 3-hop backbone, advertised
/// bound 32 per hop, hard CDV.
struct A1Capacity {
  std::size_t offered = 0;
  std::size_t bitstream_admitted = 0;
  std::size_t max_rate_admitted = 0;
};

[[nodiscard]] A1Capacity a1_capacity();

/// One simulated admitted set of A2, driven by phase-aligned sources.
struct A2Simulation {
  std::uint64_t cells_dropped = 0;
  double worst_delay = 0;  ///< cell times
};

/// A2: CBR(1/40) connections through one switch with a 32-cell FIFO,
/// admitted by peak allocation and by the bit-stream CAC, then simulated.
struct A2Result {
  std::size_t offered = 0;
  double queue_cells = 0;
  std::size_t peak_admitted = 0;
  std::size_t bitstream_admitted = 0;
  A2Simulation peak;
  A2Simulation bitstream;
  double bitstream_bound = 0;  ///< largest computed end-to-end bound
};

[[nodiscard]] A2Result a2_peak_allocation();

}  // namespace rtcac::ablation
