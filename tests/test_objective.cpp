#include "core/objective.hpp"

#include <gtest/gtest.h>

namespace tegrec::core {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();

std::vector<double> ramp(std::size_t n, double hi, double lo) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = hi + (lo - hi) * static_cast<double>(i) / static_cast<double>(n - 1);
  }
  return out;
}

TEST(Objective, ConfigPowerBelowIdealAndArrayMpp) {
  const teg::TegArray array(kDev, ramp(30, 35.0, 8.0));
  const teg::ArrayEvaluator evaluator(array);
  const power::Converter conv{power::ConverterParams{}};
  const teg::ArrayConfig c = teg::ArrayConfig::uniform(30, 6);
  const double p = config_power_w(evaluator, conv, c);
  EXPECT_GT(p, 0.0);
  EXPECT_LE(p, evaluator.mpp_power_w(c) + 1e-9);  // conversion loses power
  EXPECT_LE(p, array.ideal_power_w() + 1e-9);
}

TEST(Objective, OperatingPointConsistent) {
  const teg::TegArray array(kDev, ramp(30, 35.0, 8.0));
  const teg::ArrayEvaluator evaluator(array);
  const power::Converter conv{power::ConverterParams{}};
  const teg::ArrayConfig c = teg::ArrayConfig::uniform(30, 6);
  const power::OperatingPoint pt = config_operating_point(evaluator, conv, c);
  EXPECT_NEAR(pt.output_power_w, config_power_w(evaluator, conv, c), 1e-9);
  const teg::LinearSource s = evaluator.string_equivalent(c);
  EXPECT_NEAR(pt.voltage_v, s.voltage_at_current(pt.current_a), 1e-9);
  // The span overload is the same model, bit for bit.
  const power::OperatingPoint span_pt = config_operating_point(
      evaluator, conv, std::span<const std::size_t>(c.group_starts()));
  EXPECT_EQ(span_pt.output_power_w, pt.output_power_w);
}

TEST(Objective, GroupWindowBracketsConverterBand) {
  const teg::TegArray array(kDev, ramp(100, 35.0, 8.0));
  const power::Converter conv{power::ConverterParams{}};
  const auto window = group_count_window(array, conv);
  EXPECT_GE(window.nmin, 1u);
  EXPECT_LE(window.nmax, 100u);
  EXPECT_LE(window.nmin, window.nmax);
  // A uniform config at the window centre lands inside the converter range.
  const std::size_t n_mid = (window.nmin + window.nmax) / 2;
  const double vmpp = teg::ArrayEvaluator(array)
                          .string_equivalent(teg::ArrayConfig::uniform(100, n_mid))
                          .mpp_voltage_v();
  EXPECT_GT(vmpp, conv.params().min_input_v);
  EXPECT_LT(vmpp, conv.params().max_input_v);
}

TEST(Objective, HotterArrayNeedsFewerGroups) {
  const power::Converter conv{power::ConverterParams{}};
  const teg::TegArray cold(kDev, ramp(60, 14.0, 6.0));
  const teg::TegArray hot(kDev, ramp(60, 45.0, 25.0));
  const auto w_cold = group_count_window(cold, conv);
  const auto w_hot = group_count_window(hot, conv);
  EXPECT_GE(w_cold.nmin, w_hot.nmin);
  EXPECT_GE(w_cold.nmax, w_hot.nmax);
}

}  // namespace
}  // namespace tegrec::core
