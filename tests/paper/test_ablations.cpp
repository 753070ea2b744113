// Pins the ablation numbers EXPERIMENTS.md reports (A1, A2) to the
// computations the bench binaries print, so a change to the admission
// core that moves one fails here first.  Counts compare exactly; real
// values at the precision the benches print.

#include "ablations.h"

#include <gtest/gtest.h>

namespace rtcac::ablation {
namespace {

TEST(PaperAblations, A1DistortionBursts) {
  const std::vector<DistortionRow> rows = a1_distortion();
  ASSERT_EQ(rows.size(), 4u);
  const double cdv[] = {8, 32, 96, 480};
  const double upper[] = {2.60, 7.40, 20.20, 97.00};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "CDV " << cdv[i]);
    EXPECT_EQ(rows[i].cdv, cdv[i]);
    EXPECT_NEAR(rows[i].exact_burst, 1.00, 0.005);
    EXPECT_NEAR(rows[i].upper_bound_burst, upper[i], 0.005);
  }
}

TEST(PaperAblations, A1BitStreamAdmitsMoreThanMaxRate) {
  const A1Capacity a1 = a1_capacity();
  EXPECT_EQ(a1.offered, 64u);
  EXPECT_EQ(a1.bitstream_admitted, 33u);
  EXPECT_EQ(a1.max_rate_admitted, 14u);
}

TEST(PaperAblations, A2PeakAllocationBreaksTheBound) {
  const A2Result a2 = a2_peak_allocation();
  EXPECT_EQ(a2.offered, 40u);
  EXPECT_EQ(a2.queue_cells, 32.0);
  // Peak allocation admits everything, and the phase-aligned set
  // overflows the 32-cell FIFO.
  EXPECT_EQ(a2.peak_admitted, 40u);
  EXPECT_EQ(a2.peak.cells_dropped, 3500u);
  EXPECT_EQ(a2.peak.worst_delay, 32.0);
  // The bit-stream subset runs drop-free and meets its bound exactly.
  EXPECT_EQ(a2.bitstream_admitted, 33u);
  EXPECT_EQ(a2.bitstream.cells_dropped, 0u);
  EXPECT_EQ(a2.bitstream.worst_delay, 32.0);
  EXPECT_NEAR(a2.bitstream_bound, 32.00, 0.005);
  EXPECT_LE(a2.bitstream.worst_delay, a2.bitstream_bound);
}

}  // namespace
}  // namespace rtcac::ablation
