#include "power/battery.hpp"

#include <gtest/gtest.h>

namespace tegrec::power {
namespace {

TEST(Battery, DefaultsPlausible) {
  const Battery b;
  EXPECT_NEAR(b.charge_voltage_v(), 13.8, 1e-9);
  EXPECT_NEAR(b.soc(), 0.7, 1e-9);
  EXPECT_DOUBLE_EQ(b.energy_absorbed_j(), 0.0);
}

TEST(Battery, AbsorbAccountsEnergyAndSoc) {
  Battery b;
  const double before_soc = b.soc();
  const double accepted = b.absorb(100.0, 10.0);  // 1 kJ
  EXPECT_NEAR(accepted, 100.0, 1e-9);
  EXPECT_NEAR(b.energy_absorbed_j(), 1000.0, 1e-9);
  // dAh = (100/13.8) * 10 / 3600; dSOC = dAh / 60.
  const double expected_dsoc = (100.0 / 13.8) * 10.0 / 3600.0 / 60.0;
  EXPECT_NEAR(b.soc() - before_soc, expected_dsoc, 1e-12);
}

TEST(Battery, ChargeCurrentLimitClipsPower) {
  BatteryParams p;
  p.max_charge_current_a = 10.0;  // 138 W ceiling
  Battery b(p);
  const double accepted = b.absorb(500.0, 1.0);
  EXPECT_NEAR(accepted, 138.0, 1e-9);
}

TEST(Battery, FullBatteryRejectsCharge) {
  BatteryParams p;
  p.initial_soc = 1.0;
  Battery b(p);
  EXPECT_DOUBLE_EQ(b.absorb(100.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(b.energy_absorbed_j(), 0.0);
}

TEST(Battery, TopOffStopsExactlyAtFull) {
  BatteryParams p;
  p.capacity_ah = 0.001;  // tiny battery fills fast
  p.initial_soc = 0.99;
  Battery b(p);
  for (int i = 0; i < 100; ++i) b.absorb(100.0, 1.0);
  EXPECT_NEAR(b.soc(), 1.0, 1e-12);
}

TEST(Battery, SocNeverExceedsOne) {
  BatteryParams p;
  p.capacity_ah = 0.01;
  p.initial_soc = 0.5;
  Battery b(p);
  for (int i = 0; i < 10000; ++i) b.absorb(200.0, 1.0);
  EXPECT_LE(b.soc(), 1.0);
}

TEST(Battery, InvalidArgsThrow) {
  BatteryParams p;
  p.capacity_ah = 0.0;
  EXPECT_THROW(Battery{p}, std::invalid_argument);
  p = BatteryParams{};
  p.initial_soc = 1.5;
  EXPECT_THROW(Battery{p}, std::invalid_argument);
  p = BatteryParams{};
  p.max_charge_current_a = 0.0;
  EXPECT_THROW(Battery{p}, std::invalid_argument);

  Battery b;
  EXPECT_THROW(b.absorb(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(b.absorb(1.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace tegrec::power
