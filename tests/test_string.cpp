// A series string is the Thevenin sum of its groups' ports (in_series).
#include <gtest/gtest.h>

#include <vector>

#include "teg/linear_source.hpp"
#include "teg/module.hpp"

namespace tegrec::teg {
namespace {

const DeviceParams kDev = tgm_199_1_4_0_8();

std::vector<LinearSource> ports_at(std::initializer_list<double> dts) {
  std::vector<LinearSource> out;
  for (double dt : dts) out.push_back(Module::from_delta_t(kDev, dt).port());
  return out;
}

LinearSource group_at(std::initializer_list<double> dts) {
  return in_parallel(ports_at(dts));
}

double sum_mpp_power(const std::vector<LinearSource>& sources) {
  double total = 0.0;
  for (const LinearSource& s : sources) total += s.mpp_power_w();
  return total;
}

TEST(InSeries, EmptyThrows) {
  EXPECT_THROW(in_series({}), std::invalid_argument);
}

TEST(InSeries, TotalsAreSumsInGroupOrder) {
  const std::vector<LinearSource> groups{group_at({30.0, 28.0}),
                                         group_at({20.0, 18.0}),
                                         group_at({9.0})};
  const LinearSource s = in_series(groups);
  EXPECT_EQ(s.voc_v, groups[0].voc_v + groups[1].voc_v + groups[2].voc_v);
  EXPECT_EQ(s.r_ohm, groups[0].r_ohm + groups[1].r_ohm + groups[2].r_ohm);
}

TEST(InSeries, MppClosedForm) {
  const LinearSource s = in_series(std::vector<LinearSource>{
      group_at({30.0}), group_at({20.0})});
  EXPECT_NEAR(s.mpp_current_a(), s.voc_v / (2.0 * s.r_ohm), 1e-12);
  EXPECT_NEAR(s.mpp_power_w(), s.voc_v * s.voc_v / (4.0 * s.r_ohm), 1e-12);
  EXPECT_NEAR(s.mpp_voltage_v(), s.voc_v / 2.0, 1e-12);
  // MPP dominates a current sweep.
  for (double frac = 0.0; frac <= 2.0; frac += 0.05) {
    const double i = frac * s.mpp_current_a();
    EXPECT_LE(s.voltage_at_current(i) * i, s.mpp_power_w() + 1e-9);
  }
}

TEST(InSeries, GroupVoltagesSumToStringVoltage) {
  const std::vector<LinearSource> groups{group_at({35.0, 30.0}),
                                         group_at({22.0}),
                                         group_at({15.0, 12.0, 10.0})};
  const LinearSource s = in_series(groups);
  const double i = 0.7;
  double total = 0.0;
  for (const LinearSource& g : groups) total += g.voltage_at_current(i);
  EXPECT_NEAR(total, s.voltage_at_current(i), 1e-9);
}

TEST(InSeries, MismatchLosesPowerMatchedReachesIdeal) {
  // Fig. 3(b): series members with different MPP currents cannot all be at
  // MPP simultaneously; matched members lose nothing.
  const auto mismatched = ports_at({45.0, 10.0});
  EXPECT_LT(in_series(mismatched).mpp_power_w(),
            sum_mpp_power(mismatched) - 1e-6);
  const auto matched = ports_at({25.0, 25.0});
  EXPECT_NEAR(in_series(matched).mpp_power_w(), sum_mpp_power(matched), 1e-9);
}

}  // namespace
}  // namespace tegrec::teg
