// Unit tests for the exact (Rational) CAC instantiation: admission
// decisions at the boundary are deterministic and bit-exact, and agree
// with the double engine away from the boundary.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/switch_cac.h"
#include "core/traffic.h"

namespace rtcac {
namespace {

ExactSwitchCac::Config exact_config(Rational bound) {
  ExactSwitchCac::Config cfg;
  cfg.in_ports = 4;
  cfg.out_ports = 1;
  cfg.priorities = 1;
  cfg.advertised_bound = bound;
  return cfg;
}

// CBR(1/3) worst-case envelope, exactly.
ExactBitStream third_cbr() {
  return TrafficDescriptor::cbr(1.0 / 3.0).to_exact_bitstream(3);
}

TEST(ExactSwitchCac, AdmitsAndComputesExactBounds) {
  ExactSwitchCac cac(exact_config(Rational(32)));
  cac.add(1, 0, 0, 0, third_cbr());
  cac.add(2, 1, 0, 0, third_cbr());
  cac.add(3, 2, 0, 0, third_cbr());
  // Three aligned full-rate first cells on a saturated link: aggregate is
  // rate 3 for one cell time, then exactly 1 forever; the queue holds 2
  // cells indefinitely, so the bound is exactly 2 — no epsilon anywhere.
  EXPECT_EQ(cac.computed_bound(0, 0).value(), Rational(2));
  EXPECT_EQ(cac.buffer_requirement(0, 0).value(), Rational(2));
  EXPECT_EQ(cac.sustained_load(0, 0), Rational(1));
  EXPECT_TRUE(cac.state_consistent());
}

TEST(ExactSwitchCac, BoundaryEqualityAdmits) {
  // Advertised bound exactly equal to the resulting worst case: the
  // paper's admission rule is <=, and the exact engine can honor the
  // equality bit for bit.
  ExactSwitchCac cac(exact_config(Rational(2)));
  cac.add(1, 0, 0, 0, third_cbr());
  cac.add(2, 1, 0, 0, third_cbr());
  const auto check = cac.check(2, 0, 0, third_cbr());
  EXPECT_TRUE(check.admitted) << check.reason;
  EXPECT_EQ(check.bound_at_priority.value(), Rational(2));
}

TEST(ExactSwitchCac, JustBelowBoundaryRejects) {
  ExactSwitchCac cac(exact_config(Rational(2) - Rational(1, 1000000)));
  cac.add(1, 0, 0, 0, third_cbr());
  cac.add(2, 1, 0, 0, third_cbr());
  const auto check = cac.check(2, 0, 0, third_cbr());
  EXPECT_FALSE(check.admitted);
  EXPECT_NE(check.reason.find("delay bound"), std::string::npos);
}

TEST(ExactSwitchCac, OverloadIsExactlyUnbounded) {
  // Sustained load of exactly 1 is stable; one more bit of rate is not.
  ExactSwitchCac at_capacity(exact_config(Rational(32)));
  for (int i = 0; i < 3; ++i) {
    at_capacity.add(1 + i, static_cast<std::size_t>(i), 0, 0, third_cbr());
  }
  EXPECT_TRUE(at_capacity.computed_bound(0, 0).has_value());

  ExactSwitchCac cac(exact_config(Rational(32)));
  for (int i = 0; i < 3; ++i) {
    cac.add(1 + i, static_cast<std::size_t>(i), 0, 0, third_cbr());
  }
  const ExactBitStream extra{{Rational(1), Rational(0)},
                             {Rational(1, 1000000), Rational(1)}};
  const auto check = cac.check(3, 0, 0, extra);
  EXPECT_FALSE(check.admitted);
  EXPECT_FALSE(check.bound_at_priority.has_value());
}

// Sustained load 1 + 2^-k on one out-link: in-port 0 holds rate 1/2 and
// in-port 1 checks rate 1/2 + 2^-k.  The queue grows by 2^-k per cell
// time forever, so both engines must reject it as unbounded.  The double
// engine used to call a tail within 1e-9 of the service rate stable and
// admitted every k from 30 to 45 with a finite bound.
TEST(ExactSwitchCac, DoubleEngineRejectsLoadJustAboveOne) {
  SwitchCac::Config dcfg;
  dcfg.in_ports = 2;
  dcfg.out_ports = 1;
  dcfg.priorities = 1;
  ExactSwitchCac::Config ecfg;
  ecfg.in_ports = 2;
  ecfg.out_ports = 1;
  ecfg.priorities = 1;
  SwitchCac dbl(dcfg);
  ExactSwitchCac exact(ecfg);
  dbl.add(1, 0, 0, 0, BitStream::constant(0.5));
  exact.add(1, 0, 0, 0, ExactBitStream::constant(Rational(1, 2)));
  for (int k = 20; k <= 45; ++k) {
    const std::int64_t two_k = std::int64_t{1} << k;
    const auto d_check =
        dbl.check(1, 0, 0, BitStream::constant(0.5 + std::ldexp(1.0, -k)));
    const auto e_check = exact.check(
        1, 0, 0,
        ExactBitStream::constant(Rational(1, 2) + Rational(1, two_k)));
    EXPECT_FALSE(e_check.admitted) << "k = " << k;
    EXPECT_EQ(d_check.admitted, e_check.admitted) << "k = " << k;
    EXPECT_EQ(d_check.bound_at_priority.has_value(),
              e_check.bound_at_priority.has_value())
        << "k = " << k;
  }
}

// A saturated link serves no positive demand.  In-port 0 holds the
// whole link at priority 0, and in-port 1 checks, at priority 1, a burst
// at rate 1/2 lasting 1e-10 to 1e-9 cell times.  Its bits never leave,
// so both engines must reject it as unbounded.  The double engine used
// to count up to 1e-9 bits as served by the saturated link and admitted
// every such burst with a bound of 0.
TEST(ExactSwitchCac, DoubleEngineServesNoDemandOnASaturatedLink) {
  SwitchCac::Config dcfg;
  dcfg.in_ports = 2;
  dcfg.out_ports = 1;
  dcfg.priorities = 2;
  ExactSwitchCac::Config ecfg;
  ecfg.in_ports = 2;
  ecfg.out_ports = 1;
  ecfg.priorities = 2;
  SwitchCac dbl(dcfg);
  ExactSwitchCac exact(ecfg);
  dbl.add(1, 0, 0, 0, BitStream::constant(1.0));
  exact.add(1, 0, 0, 0, ExactBitStream::constant(Rational(1)));
  for (std::int64_t k = 1; k <= 10; ++k) {
    const double width = static_cast<double>(k) * 1e-10;
    const auto d_check =
        dbl.check(1, 0, 1, BitStream{{0.5, 0.0}, {0.0, width}});
    const auto e_check = exact.check(
        1, 0, 1,
        ExactBitStream{{Rational(1, 2), Rational(0)},
                       {Rational(0), Rational(k, 10'000'000'000)}});
    EXPECT_FALSE(e_check.admitted) << "k = " << k;
    EXPECT_EQ(d_check.admitted, e_check.admitted) << "k = " << k;
    EXPECT_EQ(d_check.bound_at_priority.has_value(),
              e_check.bound_at_priority.has_value())
        << "k = " << k;
  }
}

TEST(ExactSwitchCac, RemoveRestoresExactState) {
  ExactSwitchCac cac(exact_config(Rational(32)));
  cac.add(1, 0, 0, 0, third_cbr());
  const Rational before = cac.computed_bound(0, 0).value();
  for (int i = 0; i < 20; ++i) {
    cac.add(100 + i, 1, 0, 0,
            TrafficDescriptor::vbr(0.5, 0.125, 4).to_exact_bitstream(8));
    cac.remove(100 + i);
  }
  EXPECT_EQ(cac.computed_bound(0, 0).value(), before);  // ==, not NEAR
  EXPECT_TRUE(cac.state_consistent());
}

TEST(ExactSwitchCac, AgreesWithDoubleEngineOnDyadicWorkload) {
  // Rates that are exact in binary floating point: both engines must make
  // identical decisions and (converted) identical bounds.
  SwitchCac::Config dcfg;
  dcfg.in_ports = 4;
  dcfg.out_ports = 1;
  dcfg.priorities = 2;
  dcfg.advertised_bound = 24;
  SwitchCac dbl(dcfg);
  ExactSwitchCac exact(
      [] {
        ExactSwitchCac::Config cfg;
        cfg.in_ports = 4;
        cfg.out_ports = 1;
        cfg.priorities = 2;
        cfg.advertised_bound = Rational(24);
        return cfg;
      }());

  const TrafficDescriptor contracts[] = {
      TrafficDescriptor::cbr(0.25),
      TrafficDescriptor::vbr(0.5, 0.125, 4),
      TrafficDescriptor::vbr(0.25, 0.0625, 8),
      TrafficDescriptor::cbr(0.125),
  };
  for (std::size_t k = 0; k < 4; ++k) {
    const Priority prio = static_cast<Priority>(k % 2);
    const auto d_check =
        dbl.check(k, 0, prio, contracts[k].to_bitstream());
    const auto e_check =
        exact.check(k, 0, prio, contracts[k].to_exact_bitstream(16));
    ASSERT_EQ(d_check.admitted, e_check.admitted) << "connection " << k;
    if (d_check.admitted) {
      EXPECT_NEAR(d_check.bound_at_priority.value(),
                  e_check.bound_at_priority.value().to_double(), 1e-9);
      dbl.add(k, k, 0, prio, contracts[k].to_bitstream());
      exact.add(k, k, 0, prio, contracts[k].to_exact_bitstream(16));
    }
  }
  EXPECT_EQ(dbl.connection_count(), exact.connection_count());
}

}  // namespace
}  // namespace rtcac
