#include "thermal/radiator.hpp"

#include <gtest/gtest.h>

namespace tegrec::thermal {
namespace {

StreamConditions nominal() {
  StreamConditions c;
  c.hot_inlet_c = 92.0;
  c.cold_inlet_c = 25.0;
  c.hot_capacity_w_k = 2400.0;
  c.cold_capacity_w_k = 2200.0;
  return c;
}

TEST(Radiator, HotSideDecreasesAlongPath) {
  RadiatorLayout layout;
  const auto temps = module_hot_side_temperatures(layout, nominal());
  ASSERT_EQ(temps.size(), layout.num_modules);
  for (std::size_t i = 1; i < temps.size(); ++i) {
    EXPECT_LT(temps[i], temps[i - 1]);
  }
}

TEST(Radiator, HotSideBelowCoolantAboveAmbient) {
  RadiatorLayout layout;
  const StreamConditions cond = nominal();
  const auto temps = module_hot_side_temperatures(layout, cond);
  for (double t : temps) {
    EXPECT_GT(t, cond.cold_inlet_c);
    EXPECT_LT(t, cond.hot_inlet_c);
  }
}

TEST(Radiator, CouplingScalesDeltaT) {
  RadiatorLayout full;
  full.surface_coupling = 1.0;
  RadiatorLayout half;
  half.surface_coupling = 0.5;
  const StreamConditions cond = nominal();
  const auto hot_full = module_hot_side_temperatures(full, cond);
  const auto hot_half = module_hot_side_temperatures(half, cond);
  for (std::size_t i = 0; i < hot_full.size(); ++i) {
    EXPECT_NEAR(hot_half[i] - cond.cold_inlet_c,
                0.5 * (hot_full[i] - cond.cold_inlet_c), 1e-9);
  }
}

TEST(Radiator, FullCouplingMatchesCoolantProfile) {
  RadiatorLayout layout;
  layout.surface_coupling = 1.0;
  const StreamConditions cond = nominal();
  const auto hot = module_hot_side_temperatures(layout, cond);
  const auto coolant =
      temperature_profile(layout.exchanger, cond, layout.num_modules);
  for (std::size_t i = 0; i < hot.size(); ++i) {
    EXPECT_NEAR(hot[i], coolant[i], 1e-9);
  }
}

TEST(Radiator, InvalidParametersThrow) {
  RadiatorLayout layout;
  layout.num_modules = 0;
  EXPECT_THROW(module_hot_side_temperatures(layout, nominal()),
               std::invalid_argument);
  layout.num_modules = 10;
  layout.surface_coupling = 0.0;
  EXPECT_THROW(module_hot_side_temperatures(layout, nominal()),
               std::invalid_argument);
  layout.surface_coupling = 1.2;
  EXPECT_THROW(module_hot_side_temperatures(layout, nominal()),
               std::invalid_argument);
}

}  // namespace
}  // namespace tegrec::thermal
