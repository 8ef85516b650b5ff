#include "teg/array.hpp"

#include <gtest/gtest.h>

#include <span>

#include "port_oracle.hpp"
#include "teg/array_evaluator.hpp"

namespace tegrec::teg {
namespace {

const DeviceParams kDev = tgm_199_1_4_0_8();

std::vector<double> ramp(std::size_t n, double hi, double lo) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = hi + (lo - hi) * static_cast<double>(i) / static_cast<double>(n - 1);
  }
  return out;
}

TEST(TegArray, ConstructionAndAccess) {
  const TegArray array(kDev, {30.0, 20.0, 10.0});
  const std::span<const LinearSource> ports = array;
  EXPECT_EQ(array.size(), 3u);
  ASSERT_EQ(ports.size(), 3u);
  EXPECT_EQ(ports[0].voc_v, Module::from_delta_t(kDev, 30.0).port().voc_v);
  EXPECT_EQ(ports[2].r_ohm, Module::from_delta_t(kDev, 10.0).port().r_ohm);
}

TEST(TegArray, InvalidConstructionThrows) {
  EXPECT_THROW(TegArray(kDev, {}), std::invalid_argument);
  EXPECT_THROW(TegArray(kDev, {-1.0}), std::invalid_argument);
}

TEST(TegArray, IdealPowerIsSumOfModuleMpps) {
  const TegArray array(kDev, {30.0, 20.0, 10.0});
  double expected = 0.0;
  for (const LinearSource& port : array) expected += port.mpp_power_w();
  EXPECT_NEAR(array.ideal_power_w(), expected, 1e-12);
}

TEST(TegArray, ConfigMppNeverExceedsIdeal) {
  const TegArray array(kDev, ramp(12, 40.0, 8.0));
  for (std::size_t n : {1u, 2u, 3u, 4u, 6u, 12u}) {
    const ArrayConfig c = ArrayConfig::uniform(12, n);
    EXPECT_LE(oracle::direct_string_port(array, c).mpp_power_w(),
              array.ideal_power_w() + 1e-9)
        << "n=" << n;
  }
}

TEST(TegArray, UniformTemperaturesAnyConfigIsIdeal) {
  // With identical modules every series/parallel arrangement reaches the
  // ideal power (no mismatch to lose).
  const TegArray array(kDev, std::vector<double>(8, 25.0));
  const ArrayEvaluator evaluator(array);
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    const ArrayConfig c = ArrayConfig::uniform(8, n);
    EXPECT_NEAR(evaluator.string_equivalent(c).mpp_power_w(),
                array.ideal_power_w(), 1e-9);
  }
}

TEST(TegArray, ModuleMppCurrentsMatchModules) {
  const TegArray array(kDev, {33.0, 22.0, 11.0});
  const std::span<const LinearSource> ports = array;
  const auto currents = array.module_mpp_currents();
  ASSERT_EQ(currents.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(currents[i], ports[i].mpp_current_a(), 1e-12);
  }
}

TEST(TegArray, EvaluatorMatchesDirectPortSummation) {
  // The evaluator's prefix sums against in_series(in_parallel(ports)).
  const TegArray array(kDev, {30.0, 28.0, 12.0, 10.0, 7.5});
  const ArrayEvaluator evaluator(array);
  for (const ArrayConfig& c :
       {ArrayConfig({0, 2}, 5), ArrayConfig::all_parallel(5),
        ArrayConfig::all_series(5), ArrayConfig({0, 1, 4}, 5)}) {
    const LinearSource direct = oracle::direct_string_port(array, c);
    const LinearSource cached = evaluator.string_equivalent(c);
    EXPECT_NEAR(cached.voc_v, direct.voc_v, 1e-12 * direct.voc_v);
    EXPECT_NEAR(cached.r_ohm, direct.r_ohm, 1e-12 * direct.r_ohm);
  }
  EXPECT_THROW(evaluator.string_equivalent(ArrayConfig::all_parallel(4)),
               std::invalid_argument);
}

}  // namespace
}  // namespace tegrec::teg
