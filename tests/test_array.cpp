#include "teg/array.hpp"

#include <gtest/gtest.h>

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
  EXPECT_EQ(array.size(), 3u);
  EXPECT_NEAR(array.module(0).delta_t_k(), 30.0, 1e-12);
  EXPECT_THROW(array.module(3), std::out_of_range);
}

TEST(TegArray, InvalidConstructionThrows) {
  EXPECT_THROW(TegArray(kDev, {}), std::invalid_argument);
  EXPECT_THROW(TegArray(kDev, {-1.0}), std::invalid_argument);
}

TEST(TegArray, IdealPowerIsSumOfModuleMpps) {
  const TegArray array(kDev, {30.0, 20.0, 10.0});
  double expected = 0.0;
  for (std::size_t i = 0; i < 3; ++i) expected += array.module(i).port().mpp_power_w();
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
    EXPECT_NEAR(evaluator.mpp_power_w(ArrayConfig::uniform(8, n)),
                array.ideal_power_w(), 1e-9);
  }
}

TEST(TegArray, SetDeltaTUpdatesModules) {
  TegArray array(kDev, {30.0, 20.0});
  const double before = array.ideal_power_w();
  array.set_delta_t({15.0, 10.0}, 25.0);
  EXPECT_LT(array.ideal_power_w(), before);
  EXPECT_NEAR(array.module(0).delta_t_k(), 15.0, 1e-12);
  EXPECT_THROW(array.set_delta_t({1.0}, 25.0), std::invalid_argument);
}

TEST(TegArray, ModuleMppCurrentsMatchModules) {
  const TegArray array(kDev, {33.0, 22.0, 11.0});
  const auto currents = array.module_mpp_currents();
  ASSERT_EQ(currents.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(currents[i], array.module(i).port().mpp_current_a(), 1e-12);
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
