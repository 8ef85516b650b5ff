// End-to-end integration tests: the four schemes on a common synthetic
// drive must reproduce the orderings of the paper's Table I and Fig. 7.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/dnor.hpp"
#include "core/ehtr.hpp"
#include "core/fixed_baseline.hpp"
#include "core/inor.hpp"
#include "predict/evaluate.hpp"
#include "predict/mlr.hpp"
#include "sim/simulator.hpp"
#include "thermal/trace.hpp"

namespace tegrec {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

class IntegrationTest : public ::testing::Test {
 protected:
  // 120 s mixed segment, 50 modules: long enough for DNOR warmup and the
  // schemes to differentiate, short enough for CI.
  static void SetUpTestSuite() {
    thermal::TraceGeneratorConfig config;
    config.layout.num_modules = 50;
    config.segments = {{thermal::DriveSegment::Kind::kUrban, 60.0, 32.0, 0.0},
                       {thermal::DriveSegment::Kind::kCruise, 60.0, 70.0, 0.0}};
    config.seed = 2018;
    trace_ = new thermal::TemperatureTrace(thermal::generate_trace(config));

    core::DnorReconfigurer dnor(kDev, kConv);
    core::InorReconfigurer inor(kDev, kConv);
    core::EhtrReconfigurer ehtr(kDev, kConv);
    auto baseline = core::FixedBaselineReconfigurer::square_grid(50);
    results_ = new std::vector<sim::SimulationResult>{
        sim::run_simulation(dnor, *trace_), sim::run_simulation(inor, *trace_),
        sim::run_simulation(ehtr, *trace_),
        sim::run_simulation(baseline, *trace_)};
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete results_;
    trace_ = nullptr;
    results_ = nullptr;
  }

  const sim::SimulationResult& dnor() { return (*results_)[0]; }
  const sim::SimulationResult& inor() { return (*results_)[1]; }
  const sim::SimulationResult& ehtr() { return (*results_)[2]; }
  const sim::SimulationResult& baseline() { return (*results_)[3]; }

  static thermal::TemperatureTrace* trace_;
  static std::vector<sim::SimulationResult>* results_;
};

thermal::TemperatureTrace* IntegrationTest::trace_ = nullptr;
std::vector<sim::SimulationResult>* IntegrationTest::results_ = nullptr;

TEST_F(IntegrationTest, EnergyOrderingMatchesTable1) {
  // DNOR >= {INOR, EHTR} > Baseline (paper Table I ordering).  INOR and
  // EHTR differ only through compute-time overhead vs instantaneous
  // quality, which nearly cancel on this platform — require them equal to
  // within 1%.
  EXPECT_GE(dnor().energy_output_j, inor().energy_output_j - 1e-6);
  EXPECT_GE(dnor().energy_output_j, ehtr().energy_output_j - 1e-6);
  EXPECT_NEAR(inor().energy_output_j, ehtr().energy_output_j,
              0.01 * inor().energy_output_j);
  EXPECT_GT(ehtr().energy_output_j, baseline().energy_output_j);
  EXPECT_GT(inor().energy_output_j, baseline().energy_output_j);
}

TEST_F(IntegrationTest, ReconfigurationBeatsBaselineSubstantially) {
  const double gain = dnor().energy_output_j / baseline().energy_output_j;
  EXPECT_GT(gain, 1.08);  // headline improvement must be well clear of noise
}

TEST_F(IntegrationTest, OverheadOrderingMatchesTable1) {
  // Both periodic schemes pay the full per-period actuation cost and land
  // within ~10% of each other; DNOR is at least 5x below either.
  EXPECT_LT(dnor().switch_overhead_j, inor().switch_overhead_j / 5.0);
  EXPECT_LT(dnor().switch_overhead_j, ehtr().switch_overhead_j / 5.0);
  EXPECT_NEAR(inor().switch_overhead_j, ehtr().switch_overhead_j,
              0.10 * ehtr().switch_overhead_j);
  EXPECT_DOUBLE_EQ(baseline().switch_overhead_j, 0.0);
}

TEST_F(IntegrationTest, RuntimeOrderingMatchesTable1) {
  // avg_runtime_ms is wall-clock: one preemption inside a ~0.05 ms
  // invocation can outweigh the gap between schemes on a loaded host.
  // Re-run the three schemes round-robin and compare each one's fastest
  // run, the usual way to read a timing through scheduler noise.
  constexpr int kRepeats = 5;
  double dnor_ms = dnor().avg_runtime_ms;
  double inor_ms = inor().avg_runtime_ms;
  double ehtr_ms = ehtr().avg_runtime_ms;
  for (int k = 1; k < kRepeats; ++k) {
    core::DnorReconfigurer dnor_rc(kDev, kConv);
    core::InorReconfigurer inor_rc(kDev, kConv);
    core::EhtrReconfigurer ehtr_rc(kDev, kConv);
    dnor_ms = std::min(dnor_ms,
                       sim::run_simulation(dnor_rc, *trace_).avg_runtime_ms);
    inor_ms = std::min(inor_ms,
                       sim::run_simulation(inor_rc, *trace_).avg_runtime_ms);
    ehtr_ms = std::min(ehtr_ms,
                       sim::run_simulation(ehtr_rc, *trace_).avg_runtime_ms);
  }
  EXPECT_GT(ehtr_ms, inor_ms);
  EXPECT_GT(ehtr_ms, dnor_ms);
}

TEST_F(IntegrationTest, RatiosToIdealInFig7Band) {
  // Reconfiguring schemes track ideal closely; the fixed baseline lags.
  EXPECT_GT(dnor().ratio_to_ideal(), 0.85);
  EXPECT_GT(inor().ratio_to_ideal(), 0.80);
  EXPECT_LT(baseline().ratio_to_ideal(), dnor().ratio_to_ideal());
  for (const auto* r : {&dnor(), &inor(), &ehtr(), &baseline()}) {
    EXPECT_LE(r->ratio_to_ideal(), 1.0);
  }
}

TEST_F(IntegrationTest, DnorSwitchEventsSparse) {
  EXPECT_LT(dnor().num_switch_events, trace_->num_steps() / 6);
  EXPECT_EQ(inor().num_switch_events, trace_->num_steps() - 1);
}

TEST_F(IntegrationTest, MlrPredictionAccurateOnThisTrace) {
  predict::MlrPredictor mlr;
  predict::EvaluationOptions options;
  options.window = 20;
  const auto res = predict::evaluate_online(mlr, *trace_, options);
  EXPECT_LT(res.mean_mape_percent, 0.5);  // paper: ~0.05-0.3 %
}

TEST_F(IntegrationTest, AllSchemesProducePositivePowerThroughout) {
  for (const auto* r : {&dnor(), &inor(), &ehtr(), &baseline()}) {
    std::size_t zero_steps = 0;
    for (const auto& s : r->steps) {
      if (s.net_power_w <= 0.0) ++zero_steps;
    }
    // Allow only the rare fully-blanked overhead step.
    EXPECT_LT(zero_steps, r->steps.size() / 20) << r->algorithm;
  }
}

}  // namespace
}  // namespace tegrec
