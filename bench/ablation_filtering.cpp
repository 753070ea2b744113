// Ablation A1: what the paper's two analytical improvements over the
// maximum-rate-function framework of Raha et al. [9] are worth.
//
//   (a) exact CDV distortion (release capped at link rate) vs the upper
//       bound (instantaneous burst) — compared directly on one stream;
//   (b) per-in-link filtering of aggregates vs none — compared via the
//       capacity each admission controller reaches on the same symmetric
//       RTnet-style workload with identical advertised bounds and CDV
//       accumulation.
//
// Expected shape: the bit-stream scheme's bounds are tighter everywhere
// and it admits strictly more connections.

#include <cstddef>
#include <cstdio>

#include "ablations.h"

namespace {

using namespace rtcac;

void distortion_comparison() {
  std::printf(
      "(a) CDV distortion of one CBR(0.2) stream: bits credited by t=CDV\n");
  std::printf("%-8s %-22s %-22s\n", "CDV", "exact burst (cells)",
              "upper-bound burst (cells)");
  for (const ablation::DistortionRow& row : ablation::a1_distortion()) {
    std::printf("%-8.0f %-22.2f %-22.2f\n", row.cdv, row.exact_burst,
                row.upper_bound_burst);
  }
  std::printf("\n");
}

void capacity_comparison() {
  std::printf(
      "(b) connections admitted on a 3-hop backbone, CBR(0.02) each,\n"
      "    advertised bound 32 cell times per hop, hard CDV:\n\n");
  std::printf("%-34s %-10s\n", "scheme", "admitted");

  const ablation::A1Capacity a1 = ablation::a1_capacity();
  std::printf("%-34s %zu / %zu\n", "bit-stream CAC (this paper)",
              a1.bitstream_admitted, a1.offered);
  std::printf("%-34s %zu / %zu\n", "max-rate-function CAC ([9]-style)",
              a1.max_rate_admitted, a1.offered);
  std::printf("\nadmission gain: %+zd connections (%.0f%%)\n",
              static_cast<std::ptrdiff_t>(a1.bitstream_admitted -
                                          a1.max_rate_admitted),
              100.0 * (static_cast<double>(a1.bitstream_admitted) /
                           static_cast<double>(a1.max_rate_admitted) -
                       1.0));
}

}  // namespace

int main() {
  std::printf(
      "Ablation A1: exact distortion + link filtering vs the [9]-style\n"
      "maximum-rate-function framework\n\n");
  distortion_comparison();
  capacity_comparison();
  return 0;
}
