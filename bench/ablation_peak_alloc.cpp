// Ablation A2: the paper's Section 1 claim that peak bandwidth allocation
// cannot provide hard delay guarantees, demonstrated end to end:
//
//   1. peak allocation admits 40 CBR connections (sum of peaks == link
//      rate) that the bit-stream CAC rejects for a 32-cell FIFO;
//   2. the cell-level simulation of the peak-allocated set, driven by
//      phase-aligned conforming sources, overflows the FIFO and exceeds
//      the 32-cell-time delay the queue was sized for — no admitted-set
//      guarantee survives;
//   3. the subset the bit-stream CAC admits runs drop-free with every
//      measured delay within its computed bound.

#include <cstdio>

#include "ablations.h"

int main() {
  const rtcac::ablation::A2Result a2 = rtcac::ablation::a2_peak_allocation();

  std::printf(
      "Ablation A2: peak bandwidth allocation vs bit-stream CAC\n"
      "%zu CBR connections of PCR = 1/%zu through one switch with a "
      "%.0f-cell FIFO\n\n",
      a2.offered, a2.offered, a2.queue_cells);
  std::printf("admitted by peak allocation : %zu / %zu\n", a2.peak_admitted,
              a2.offered);
  std::printf("admitted by bit-stream CAC  : %zu / %zu\n\n",
              a2.bitstream_admitted, a2.offered);

  std::printf("peak-allocated set, simulated worst case:\n");
  std::printf("  cells dropped       : %llu\n",
              static_cast<unsigned long long>(a2.peak.cells_dropped));
  std::printf("  max queueing delay  : %.0f cell times (queue sized for "
              "%.0f)\n\n",
              a2.peak.worst_delay, a2.queue_cells);

  std::printf("bit-stream-admitted subset, simulated worst case:\n");
  std::printf("  cells dropped       : %llu\n",
              static_cast<unsigned long long>(a2.bitstream.cells_dropped));
  std::printf("  max queueing delay  : %.0f cell times\n",
              a2.bitstream.worst_delay);
  std::printf("  analytic bound      : %.2f cell times (holds: %s)\n",
              a2.bitstream_bound,
              a2.bitstream.worst_delay <= a2.bitstream_bound ? "yes" : "NO");
  return 0;
}
