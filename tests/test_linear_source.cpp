#include "teg/linear_source.hpp"

#include <gtest/gtest.h>

#include "teg/module.hpp"

// The port's own V/I/P/MPP arithmetic.  Its combinators are checked by the
// topology they build: in_parallel in test_group, in_series in test_string,
// rows joined in parallel in test_string_bank.

namespace tegrec::teg {
namespace {

const DeviceParams kDev = tgm_199_1_4_0_8();

TEST(LinearSource, MppClosedForm) {
  const LinearSource s{3.0, 1.5};
  EXPECT_DOUBLE_EQ(s.mpp_voltage_v(), 1.5);
  EXPECT_DOUBLE_EQ(s.mpp_current_a(), 1.0);
  EXPECT_DOUBLE_EQ(s.mpp_power_w(), 1.5);
  EXPECT_NEAR(s.mpp_power_w(), s.mpp_voltage_v() * s.mpp_current_a(), 1e-12);
  // The MPP dominates a voltage sweep from short to open circuit.
  for (double frac = 0.0; frac <= 2.0; frac += 0.05) {
    EXPECT_LE(s.power_at_voltage(frac * s.mpp_voltage_v()),
              s.mpp_power_w() + 1e-12);
  }
}

TEST(LinearSource, VoltageAndCurrentViewsAgree) {
  const LinearSource s{2.4, 0.8};
  const double i = 0.9;
  const double v = s.voltage_at_current(i);
  EXPECT_NEAR(s.current_at_voltage(v), i, 1e-12);
  EXPECT_NEAR(s.power_at_voltage(v), v * i, 1e-12);
}

TEST(LinearSource, ModulePortIsSingleMemberGroupAndString) {
  // A lone module is a one-member group and a one-group string.
  const LinearSource m = Module::from_delta_t(kDev, 30.0).port();
  const LinearSource one[] = {m};
  const LinearSource g = in_parallel(one);
  EXPECT_NEAR(g.voc_v, m.voc_v, 1e-12);
  EXPECT_NEAR(g.r_ohm, m.r_ohm, 1e-12);
  const LinearSource s = in_series(one);
  EXPECT_EQ(s.voc_v, m.voc_v);
  EXPECT_EQ(s.r_ohm, m.r_ohm);
}

}  // namespace
}  // namespace tegrec::teg
