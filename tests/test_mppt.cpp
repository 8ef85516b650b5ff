#include "power/mppt.hpp"

#include <gtest/gtest.h>

#include "port_oracle.hpp"
#include "teg/array.hpp"

namespace tegrec::power {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();

teg::LinearSource make_string(std::size_t n_groups, double dt_hi, double dt_lo) {
  std::vector<double> dts;
  const std::size_t n = n_groups * 5;
  for (std::size_t i = 0; i < n; ++i) {
    dts.push_back(dt_hi +
                  (dt_lo - dt_hi) * static_cast<double>(i) / static_cast<double>(n));
  }
  const teg::TegArray array(kDev, dts);
  return oracle::direct_string_port(array, teg::ArrayConfig::uniform(n, n_groups));
}

TEST(OptimalOperatingPoint, MatchesClosedFormWithIdealConverter) {
  // A converter with no voltage penalty and no fixed loss inside a wide
  // window reduces the search to the raw string MPP.
  ConverterParams p;
  p.voltage_penalty = 0.0;
  p.fixed_loss_w = 0.0;
  p.eta_peak = 1.0;
  p.min_input_v = 0.01;
  p.max_input_v = 1000.0;
  p.max_input_power_w = 1e9;
  const Converter conv(p);
  const teg::LinearSource s = make_string(10, 35.0, 10.0);
  const OperatingPoint pt = optimal_operating_point(s, conv);
  EXPECT_NEAR(pt.current_a, s.mpp_current_a(), 1e-3);
  EXPECT_NEAR(pt.array_power_w, s.mpp_power_w(), 1e-6);
  EXPECT_NEAR(pt.output_power_w, s.mpp_power_w(), 1e-6);
}

TEST(OptimalOperatingPoint, RealConverterShiftsTowardOutputVoltage) {
  // With the voltage-penalty efficiency the optimum moves to a current
  // whose string voltage is closer to 13.8 V than the raw MPP voltage is.
  const Converter conv;
  const teg::LinearSource s = make_string(20, 40.0, 15.0);  // high-voltage string
  const OperatingPoint pt = optimal_operating_point(s, conv);
  const double raw_v = s.mpp_voltage_v();
  const double vout = conv.params().output_voltage_v;
  if (raw_v > vout) {
    EXPECT_LE(std::abs(pt.voltage_v - vout), std::abs(raw_v - vout) + 1e-6);
  }
  EXPECT_LE(pt.output_power_w, pt.array_power_w);
}

TEST(OptimalOperatingPoint, NeverNegative) {
  const Converter conv;
  const teg::LinearSource s = make_string(2, 5.0, 2.0);  // tiny voltages
  const OperatingPoint pt = optimal_operating_point(s, conv);
  EXPECT_GE(pt.output_power_w, 0.0);
  EXPECT_GE(pt.array_power_w, 0.0);
}

TEST(OptimalOperatingPoint, BadToleranceThrows) {
  const Converter conv;
  const teg::LinearSource s = make_string(4, 20.0, 10.0);
  EXPECT_THROW(optimal_operating_point(s, conv, 0.0), std::invalid_argument);
}

TEST(PerturbObserve, ConvergesNearOracle) {
  const Converter conv;
  const teg::LinearSource s = make_string(10, 35.0, 10.0);
  const OperatingPoint oracle = optimal_operating_point(s, conv);

  PerturbObserveTracker tracker(0.02);
  tracker.reset(0.2 * oracle.current_a);  // start well below the peak
  const OperatingPoint tracked = tracker.run(s, conv, 600);
  EXPECT_NEAR(tracked.output_power_w, oracle.output_power_w,
              0.02 * oracle.output_power_w);
}

TEST(PerturbObserve, ConvergesFromAbove) {
  const Converter conv;
  const teg::LinearSource s = make_string(10, 35.0, 10.0);
  const OperatingPoint oracle = optimal_operating_point(s, conv);
  PerturbObserveTracker tracker(0.02);
  tracker.reset(1.8 * oracle.current_a);
  const OperatingPoint tracked = tracker.run(s, conv, 600);
  EXPECT_NEAR(tracked.output_power_w, oracle.output_power_w,
              0.02 * oracle.output_power_w);
}

TEST(PerturbObserve, OscillatesAroundPeakNotDiverges) {
  const Converter conv;
  const teg::LinearSource s = make_string(10, 30.0, 15.0);
  const OperatingPoint oracle = optimal_operating_point(s, conv);
  PerturbObserveTracker tracker(0.05);
  tracker.reset(oracle.current_a);
  // After many iterations the tracker must remain within a few perturbation
  // steps of the optimum (the textbook P&O limit cycle).
  OperatingPoint last;
  for (int i = 0; i < 500; ++i) last = tracker.step(s, conv);
  EXPECT_NEAR(last.current_a, oracle.current_a, 0.25);
}

TEST(PerturbObserve, ResetClampsNegativeCurrent) {
  PerturbObserveTracker tracker(0.02);
  tracker.reset(-5.0);
  EXPECT_DOUBLE_EQ(tracker.current_a(), 0.0);
}

TEST(PerturbObserve, BadStepThrows) {
  EXPECT_THROW(PerturbObserveTracker(0.0), std::invalid_argument);
  EXPECT_THROW(PerturbObserveTracker(-0.1), std::invalid_argument);
}

// P&O convergence property across string shapes (group counts).
class PoConvergence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoConvergence, WithinFivePercentOfOracle) {
  const std::size_t n_groups = GetParam();
  const Converter conv;
  const teg::LinearSource s = make_string(n_groups, 38.0, 9.0);
  const OperatingPoint oracle = optimal_operating_point(s, conv);
  if (oracle.output_power_w < 1e-6) GTEST_SKIP() << "string outside window";
  PerturbObserveTracker tracker(0.01);
  tracker.reset(0.5 * oracle.current_a);
  const OperatingPoint tracked = tracker.run(s, conv, 1500);
  EXPECT_GT(tracked.output_power_w, 0.95 * oracle.output_power_w);
}

INSTANTIATE_TEST_SUITE_P(GroupCounts, PoConvergence,
                         ::testing::Values(5, 8, 10, 14, 18));

}  // namespace
}  // namespace tegrec::power
