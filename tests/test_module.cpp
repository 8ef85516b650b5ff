#include "teg/module.hpp"

#include <gtest/gtest.h>

namespace tegrec::teg {
namespace {

const DeviceParams kDev = tgm_199_1_4_0_8();

TEST(Module, OpenCircuitVoltageLinearInDeltaT) {
  const Module m20 = Module::from_delta_t(kDev, 20.0);
  const Module m40 = Module::from_delta_t(kDev, 40.0);
  EXPECT_NEAR(m40.port().voc_v, 2.0 * m20.port().voc_v, 1e-12);
  EXPECT_NEAR(m20.port().voc_v, kDev.seebeck_total_v_k() * 20.0, 1e-12);
}

TEST(Module, Equation2PowerIntoLoad) {
  // P = (alpha dT Ncpl / (R + RL))^2 * RL, Eq. (2).
  const Module m = Module::from_delta_t(kDev, 30.0);
  const double r_load = 2.0;
  const double e = m.port().voc_v;
  const double r = m.port().r_ohm;
  const double expected = e / (r + r_load) * (e / (r + r_load)) * r_load;
  EXPECT_NEAR(m.power_into_load(r_load), expected, 1e-12);
}

TEST(Module, MaximumPowerTransferAtMatchedLoad) {
  // Sweep load resistance: the maximum must occur at RL == Rteg and equal
  // the closed-form MPP power.
  const Module m = Module::from_delta_t(kDev, 35.0);
  const double r_int = m.port().r_ohm;
  double best_power = 0.0, best_r = 0.0;
  for (double rl = 0.05; rl < 10.0; rl += 0.005) {
    const double p = m.power_into_load(rl);
    if (p > best_power) {
      best_power = p;
      best_r = rl;
    }
  }
  EXPECT_NEAR(best_r, r_int, 0.01);
  EXPECT_NEAR(best_power, m.port().mpp_power_w(), 1e-4);
}

TEST(Module, PortResistanceAtMeanTemperature) {
  // R is the device resistance derated at the mean face temperature.
  const Module m(kDev, 70.0, 30.0);
  EXPECT_DOUBLE_EQ(m.port().r_ohm, kDev.resistance_at(50.0));
  EXPECT_DOUBLE_EQ(m.delta_t_k(), 40.0);
}

TEST(Module, IvSweepShape) {
  const Module m = Module::from_delta_t(kDev, 40.0);
  const auto sweep = m.iv_sweep(50);
  ASSERT_EQ(sweep.size(), 50u);
  // Endpoints: V=0 -> I=Isc, P=0;  V=Voc -> I=0, P=0.
  EXPECT_DOUBLE_EQ(sweep.front().voltage_v, 0.0);
  EXPECT_NEAR(sweep.front().current_a,
              m.port().voc_v / m.port().r_ohm, 1e-12);
  EXPECT_NEAR(sweep.front().power_w, 0.0, 1e-12);
  EXPECT_NEAR(sweep.back().voltage_v, m.port().voc_v, 1e-12);
  EXPECT_NEAR(sweep.back().current_a, 0.0, 1e-12);
  // Current strictly decreasing in V (linear source).
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_LT(sweep[i].current_a, sweep[i - 1].current_a);
  }
}

TEST(Module, IvSweepNeedsTwoPoints) {
  const Module m = Module::from_delta_t(kDev, 10.0);
  EXPECT_THROW(m.iv_sweep(1), std::invalid_argument);
}

TEST(Module, InvalidConstructionThrows) {
  EXPECT_THROW(Module(kDev, 20.0, 25.0), std::invalid_argument);  // hot < cold
  EXPECT_THROW(Module::from_delta_t(kDev, kDev.max_delta_t_k + 1.0),
               std::invalid_argument);
  EXPECT_THROW(Module::from_delta_t(kDev, -1.0), std::invalid_argument);
}

TEST(Module, ZeroDeltaTProducesNothing) {
  const Module m = Module::from_delta_t(kDev, 0.0);
  EXPECT_DOUBLE_EQ(m.port().voc_v, 0.0);
  EXPECT_DOUBLE_EQ(m.port().mpp_power_w(), 0.0);
}

TEST(Module, NegativeLoadThrows) {
  const Module m = Module::from_delta_t(kDev, 10.0);
  EXPECT_THROW(m.power_into_load(-1.0), std::invalid_argument);
}

TEST(Module, HotterMeanTemperatureRaisesResistance) {
  // Same dT at two cold-side temperatures: the hotter module has higher R
  // and thus lower MPP power.
  const Module cool = Module::from_delta_t(kDev, 30.0, 25.0);
  const Module hot = Module::from_delta_t(kDev, 30.0, 60.0);
  EXPECT_GT(hot.port().r_ohm, cool.port().r_ohm);
  EXPECT_LT(hot.port().mpp_power_w(), cool.port().mpp_power_w());
}

// Parameterised across the paper's Fig. 1 temperature range: MPP power must
// grow superlinearly (quadratically modulo the R(T) derating) with dT.
class ModuleMppSweep : public ::testing::TestWithParam<double> {};

TEST_P(ModuleMppSweep, PowerScalesRoughlyQuadratically) {
  const double dt = GetParam();
  const Module m1 = Module::from_delta_t(kDev, dt);
  const Module m2 = Module::from_delta_t(kDev, 2.0 * dt);
  const double ratio = m2.port().mpp_power_w() / m1.port().mpp_power_w();
  EXPECT_GT(ratio, 3.0);   // pure quadratic would be 4; R(T) derates a bit
  EXPECT_LT(ratio, 4.05);
}

INSTANTIATE_TEST_SUITE_P(Fig1Range, ModuleMppSweep,
                         ::testing::Values(5.0, 10.0, 20.0, 30.0, 40.0));

}  // namespace
}  // namespace tegrec::teg
