// Boundary and edge-case coverage across modules: end-of-trace behaviour,
// degenerate slices, single-element structures, and controller composition
// paths not exercised by the main suites.
#include <gtest/gtest.h>

#include "core/bank.hpp"
#include "core/dnor.hpp"
#include "core/objective.hpp"
#include "core/prescient.hpp"
#include "predict/evaluate.hpp"
#include "predict/holt.hpp"
#include "sim/simulator.hpp"
#include "teg/linear_source.hpp"
#include "thermal/trace.hpp"

namespace tegrec {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

thermal::TemperatureTrace mini_trace(double duration_s = 30.0) {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = 16;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, duration_s, 30.0, 0.0}};
  config.seed = 55;
  return thermal::generate_trace(config);
}

TEST(EdgeCases, TraceSliceBeyondEndIsEmpty) {
  const auto trace = mini_trace();
  const auto empty = trace.slice(trace.duration_s() + 10.0,
                                 trace.duration_s() + 20.0);
  EXPECT_LE(empty.num_steps(), 1u);  // at most the clamped last step
}

TEST(EdgeCases, TraceSliceZeroWidth) {
  const auto trace = mini_trace();
  const auto empty = trace.slice(5.0, 5.0);
  EXPECT_EQ(empty.num_steps(), 0u);
}

TEST(EdgeCases, PrescientTruncatesLookaheadAtTraceEnd) {
  // Decisions near the end of the trace must not read past it.
  const auto trace = mini_trace(12.0);
  core::PrescientReconfigurer oracle(kDev, kConv, trace);
  for (std::size_t t = 0; t < trace.num_steps(); ++t) {
    EXPECT_NO_THROW(oracle.update(0.5 * static_cast<double>(t),
                                  trace.step_delta_t(t), trace.ambient_c(t)));
  }
}

TEST(EdgeCases, SingleModulePerGroupBankRow) {
  // A bank whose rows are full-series strings (every group a singleton).
  std::vector<double> dts{30.0, 25.0, 20.0, 15.0};
  const teg::TegArray array(kDev, dts);
  const teg::LinearSource full_series =
      teg::ArrayEvaluator(array).string_equivalent(
          teg::ArrayConfig::all_series(4));
  const std::vector<teg::LinearSource> rows{full_series, full_series};
  EXPECT_NEAR(teg::in_parallel(rows).mpp_power_w(),
              2.0 * full_series.mpp_power_w(), 1e-9);
}

TEST(EdgeCases, BankSearchSingleRowMatchesInor) {
  // With one row the bank search must reduce exactly to 1-D INOR.
  std::vector<double> dts(20);
  for (std::size_t i = 0; i < 20; ++i) dts[i] = 34.0 - 1.3 * i;
  const std::vector<teg::TegArray> rows{teg::TegArray(kDev, dts)};
  const power::Converter conv(kConv);
  const auto bank = core::bank_search(rows, conv);
  const teg::ArrayConfig direct = core::inor_search(rows[0], conv);
  EXPECT_EQ(bank.row_configs[0], direct);
}

TEST(EdgeCases, ModuleAtMaxValidDeltaT) {
  const teg::Module m = teg::Module::from_delta_t(kDev, kDev.max_delta_t_k);
  EXPECT_GT(m.port().mpp_power_w(), 0.0);
  EXPECT_LE(m.port().voc_v,
            kDev.seebeck_total_v_k() * kDev.max_delta_t_k + 1e-9);
}

TEST(EdgeCases, TwoModuleArrayEndToEnd) {
  // The smallest array the switch fabric supports.
  const teg::TegArray array(kDev, {30.0, 12.0});
  const teg::ArrayEvaluator evaluator(array);
  const power::Converter conv(kConv);
  const teg::ArrayConfig c =
      core::inor_search(array, conv, core::InorOptions{.nmin = 1, .nmax = 2});
  EXPECT_LE(core::config_power_w(evaluator, conv, c),
            array.ideal_power_w() + 1e-9);
}

TEST(EdgeCases, SimulatorSingleStepTrace) {
  thermal::TemperatureTrace one(0.5, 8);
  one.append({55, 52, 49, 46, 43, 40, 38, 36}, 25.0);
  core::DnorReconfigurer dnor(kDev, kConv);
  const sim::SimulationResult res = sim::run_simulation(dnor, one);
  EXPECT_EQ(res.steps.size(), 1u);
  // The installation step is free of overhead.
  EXPECT_DOUBLE_EQ(res.switch_overhead_j, 0.0);
}

TEST(EdgeCases, EvaluateOnlineWithHolt) {
  predict::HoltPredictor holt;
  predict::EvaluationOptions options;
  options.window = 12;
  const auto res = predict::evaluate_online(holt, mini_trace(), options);
  EXPECT_EQ(res.predictor_name, "Holt");
  EXPECT_LT(res.mean_mape_percent, 3.0);
}

TEST(EdgeCases, ConverterGroupRangeCustomWidth) {
  const power::Converter conv{kConv};
  const auto narrow = conv.efficient_group_range(1.0, 100, 1.2);
  const auto wide = conv.efficient_group_range(1.0, 100, 3.0);
  EXPECT_GE(narrow.nmin, wide.nmin);
  EXPECT_LE(narrow.nmax, wide.nmax);
  EXPECT_LT(narrow.nmax - narrow.nmin, wide.nmax - wide.nmin);
}

}  // namespace
}  // namespace tegrec
