#include "power/converter.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace tegrec::power {
namespace {

TEST(Converter, PeakEfficiencyAtOutputVoltage) {
  const Converter conv;
  const double vout = conv.params().output_voltage_v;
  const double at_peak = conv.efficiency(vout, 100.0);
  for (double vin : {5.0, 8.0, 20.0, 30.0}) {
    EXPECT_LT(conv.efficiency(vin, 100.0), at_peak) << "vin=" << vin;
  }
}

TEST(Converter, EfficiencyFallsMonotonicallyAwayFromPeak) {
  const Converter conv;
  const double vout = conv.params().output_voltage_v;
  double prev = conv.efficiency(vout, 100.0);
  for (double vin = vout + 2.0; vin <= 34.0; vin += 2.0) {
    const double e = conv.efficiency(vin, 100.0);
    EXPECT_LT(e, prev);
    prev = e;
  }
  prev = conv.efficiency(vout, 100.0);
  for (double vin = vout - 2.0; vin >= 5.0; vin -= 2.0) {
    const double e = conv.efficiency(vin, 100.0);
    EXPECT_LT(e, prev);
    prev = e;
  }
}

TEST(Converter, OutsideWindowIsZero) {
  const Converter conv;
  EXPECT_DOUBLE_EQ(conv.efficiency(4.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(conv.efficiency(40.0, 100.0), 0.0);
  EXPECT_FALSE(conv.input_in_range(4.0));
  EXPECT_TRUE(conv.input_in_range(13.8));
}

TEST(Converter, NonPositivePowerIsZeroEfficiency) {
  const Converter conv;
  EXPECT_DOUBLE_EQ(conv.efficiency(13.8, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(conv.efficiency(13.8, -5.0), 0.0);
}

TEST(Converter, LightLoadDerating) {
  const Converter conv;
  EXPECT_LT(conv.efficiency(13.8, 0.5), conv.efficiency(13.8, 50.0));
}

TEST(Converter, EfficiencyBounded) {
  const Converter conv;
  for (double vin = 5.0; vin <= 36.0; vin += 1.0) {
    for (double pin : {0.1, 1.0, 10.0, 100.0}) {
      const double e = conv.efficiency(vin, pin);
      EXPECT_GE(e, 0.0);
      EXPECT_LE(e, conv.params().eta_peak);
    }
  }
}

TEST(Converter, OutputPowerNeverExceedsInput) {
  const Converter conv;
  for (double pin : {0.5, 5.0, 50.0, 500.0}) {
    EXPECT_LE(conv.output_power_w(13.8, pin), pin);
  }
}

TEST(Converter, InputPowerClampedAtThermalLimit) {
  const Converter conv;
  const double at_limit =
      conv.output_power_w(13.8, conv.params().max_input_power_w);
  const double beyond =
      conv.output_power_w(13.8, 2.0 * conv.params().max_input_power_w);
  EXPECT_NEAR(beyond, at_limit, 1e-9);
}

TEST(Converter, InvalidParamsThrow) {
  ConverterParams p;
  p.output_voltage_v = 0.0;
  EXPECT_THROW(Converter{p}, std::invalid_argument);
  p = ConverterParams{};
  p.eta_peak = 1.2;
  EXPECT_THROW(Converter{p}, std::invalid_argument);
  p = ConverterParams{};
  p.min_input_v = 10.0;
  p.max_input_v = 5.0;
  EXPECT_THROW(Converter{p}, std::invalid_argument);
}

TEST(Converter, RejectsParamsOutsideTheModelsRanges) {
  // Ranges the certified output-power bound (power/mppt.hpp) relies on:
  // P_fix >= 0 keeps the light-load factor p / (p + P_fix) at most 1, and
  // k_v >= 0 keeps eta at most eta_peak.  NaN and inf are rejected too.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto rejects = [](double ConverterParams::*field, double value) {
    ConverterParams p;
    p.*field = value;
    EXPECT_THROW(Converter{p}, std::invalid_argument) << value;
  };
  for (double v : {-0.3, -50.0, kNan, kInf, -kInf}) {
    rejects(&ConverterParams::fixed_loss_w, v);
    rejects(&ConverterParams::voltage_penalty, v);
  }
  for (double v : {0.0, -1.0, kNan, kInf, -kInf}) {
    rejects(&ConverterParams::max_input_power_w, v);
    rejects(&ConverterParams::output_voltage_v, v);
    rejects(&ConverterParams::min_input_v, v);
    rejects(&ConverterParams::eta_peak, v);
  }
  for (double v : {kNan, kInf}) rejects(&ConverterParams::max_input_v, v);
}

TEST(Converter, AcceptsTheEdgesOfTheValidRanges) {
  ConverterParams p;
  p.fixed_loss_w = 0.0;
  p.voltage_penalty = 0.0;
  p.eta_peak = 1.0;
  p.max_input_power_w = 1e-9;
  EXPECT_NO_THROW(Converter{p});
}

TEST(Converter, GroupRangeBracketsOutputVoltage) {
  const Converter conv;
  const double group_vmpp = 1.5;
  const auto range = conv.efficient_group_range(group_vmpp, 100);
  // The window [nmin, nmax] must bracket vout/group_vmpp = 9.2.
  EXPECT_LE(range.nmin, 10u);
  EXPECT_GE(range.nmax, 9u);
  EXPECT_LE(range.nmin, range.nmax);
  // String voltages at the edges stay within the efficient band.
  EXPECT_GE(static_cast<double>(range.nmax) * group_vmpp,
            conv.params().output_voltage_v / 2.0 - group_vmpp);
  EXPECT_LE(static_cast<double>(range.nmin) * group_vmpp,
            conv.params().output_voltage_v * 2.0);
}

TEST(Converter, GroupRangeClampedToArraySize) {
  const Converter conv;
  const auto range = conv.efficient_group_range(0.2, 12);
  EXPECT_LE(range.nmax, 12u);
  EXPECT_GE(range.nmin, 1u);
}

TEST(Converter, GroupRangeDegenerateInputs) {
  const Converter conv;
  const auto r1 = conv.efficient_group_range(0.0, 100);
  EXPECT_EQ(r1.nmin, 1u);
  EXPECT_EQ(r1.nmax, 1u);
  const auto r2 = conv.efficient_group_range(1.0, 0);
  EXPECT_EQ(r2.nmin, 1u);
  EXPECT_EQ(r2.nmax, 1u);
  // Non-finite voltages get the dead-array window instead of reaching the
  // size_t cast (undefined for NaN).
  for (double v : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity()}) {
    const auto r = conv.efficient_group_range(v, 100);
    EXPECT_EQ(r.nmin, 1u) << v;
    EXPECT_EQ(r.nmax, 1u) << v;
  }
}

// The converter-aware group window shrinks as modules get hotter (higher
// per-group voltage needs fewer series groups).
TEST(Converter, WindowMovesWithGroupVoltage) {
  const Converter conv;
  const auto cold = conv.efficient_group_range(0.5, 100);
  const auto hot = conv.efficient_group_range(2.5, 100);
  EXPECT_GT(cold.nmin, hot.nmin);
  EXPECT_GT(cold.nmax, hot.nmax);
}

}  // namespace
}  // namespace tegrec::power
