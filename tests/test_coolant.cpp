#include "thermal/coolant.hpp"

#include <gtest/gtest.h>

namespace tegrec::thermal {
namespace {

TEST(Coolant, GlycolPropertiesPlausible) {
  const FluidProperties p = coolant_glycol50();
  EXPECT_GT(p.density_kg_m3, 1000.0);   // denser than water
  EXPECT_LT(p.density_kg_m3, 1100.0);
  EXPECT_GT(p.specific_heat_j_kgk, 3000.0);
  EXPECT_LT(p.specific_heat_j_kgk, 4186.0);  // below pure water
}

TEST(Coolant, AirPropertiesPlausible) {
  const FluidProperties p = ambient_air();
  EXPECT_NEAR(p.density_kg_m3, 1.18, 0.05);
  EXPECT_NEAR(p.specific_heat_j_kgk, 1006.0, 10.0);
}

TEST(Coolant, CapacityRateLinearInFlow) {
  const FluidProperties p = coolant_glycol50();
  const double c1 = p.capacity_rate_w_k(1e-3);
  const double c2 = p.capacity_rate_w_k(2e-3);
  EXPECT_NEAR(c2, 2.0 * c1, 1e-9);
  EXPECT_DOUBLE_EQ(p.capacity_rate_w_k(0.0), 0.0);
}

TEST(Coolant, TypicalRadiatorCapacityRate) {
  // 40 L/min of 50/50 glycol: C = rho * V * cp ~= 2.5 kW/K.
  const FluidProperties p = coolant_glycol50();
  const double c = p.capacity_rate_w_k(lpm_to_m3s(40.0));
  EXPECT_GT(c, 2000.0);
  EXPECT_LT(c, 3000.0);
}

TEST(Coolant, FlowUnitConversion) {
  EXPECT_NEAR(lpm_to_m3s(60.0), 1e-3, 1e-12);
  EXPECT_NEAR(lpm_to_m3s(37.5), 37.5 / 60000.0, 1e-15);
}

}  // namespace
}  // namespace tegrec::thermal
