#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "core/dnor.hpp"
#include "core/fixed_baseline.hpp"
#include "core/inor.hpp"

namespace tegrec::sim {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

// Short steep-gradient trace for fast integration tests.
thermal::TemperatureTrace test_trace(double duration_s = 30.0,
                                     std::size_t modules = 20) {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = modules;
  config.segments = {
      {thermal::DriveSegment::Kind::kUrban, duration_s, 32.0, 0.0}};
  config.seed = 5;
  return thermal::generate_trace(config);
}

TEST(Simulator, EnergyAccountingIdentity) {
  const auto trace = test_trace();
  core::InorReconfigurer inor(kDev, kConv);
  const SimulationResult res = run_simulation(inor, trace);
  // Sum of step energies equals the reported total.
  double net = 0.0, overhead = 0.0, ideal = 0.0;
  for (const StepRecord& s : res.steps) {
    net += s.net_power_w * trace.dt_s();
    overhead += s.overhead_energy_j;
    ideal += s.ideal_power_w * trace.dt_s();
  }
  EXPECT_NEAR(net, res.energy_output_j, 1e-6);
  EXPECT_NEAR(overhead, res.switch_overhead_j, 1e-9);
  EXPECT_NEAR(ideal, res.ideal_energy_j, 1e-6);
  EXPECT_EQ(res.steps.size(), trace.num_steps());
}

TEST(Simulator, NetNeverExceedsGrossOrIdeal) {
  const auto trace = test_trace();
  core::InorReconfigurer inor(kDev, kConv);
  const SimulationResult res = run_simulation(inor, trace);
  for (const StepRecord& s : res.steps) {
    EXPECT_LE(s.net_power_w, s.gross_power_w + 1e-9);
    EXPECT_LE(s.gross_power_w, s.ideal_power_w + 1e-9);
    EXPECT_GE(s.net_power_w, 0.0);
  }
}

TEST(Simulator, OverheadDisableRaisesEnergy) {
  const auto trace = test_trace();
  core::InorReconfigurer a(kDev, kConv), b(kDev, kConv);
  SimulationOptions with;
  SimulationOptions without;
  without.charge_overhead = false;
  const SimulationResult r_with = run_simulation(a, trace, with);
  const SimulationResult r_without = run_simulation(b, trace, without);
  EXPECT_GT(r_without.energy_output_j, r_with.energy_output_j);
  EXPECT_DOUBLE_EQ(r_without.switch_overhead_j, 0.0);
}

TEST(Simulator, BaselineHasNoOverheadOrRuntime) {
  const auto trace = test_trace();
  auto baseline = core::FixedBaselineReconfigurer::square_grid(20);
  const SimulationResult res = run_simulation(baseline, trace);
  EXPECT_DOUBLE_EQ(res.switch_overhead_j, 0.0);
  EXPECT_EQ(res.num_invocations, 0u);
  EXPECT_EQ(res.num_switch_events, 0u);  // installation is free
}

TEST(Simulator, InorActuatesEveryPeriod) {
  const auto trace = test_trace();
  core::InorReconfigurer inor(kDev, kConv, 0.5);
  const SimulationResult res = run_simulation(inor, trace);
  // 0.5 s period on a 0.5 s trace: every step invokes; all but the first
  // (free installation) actuate.
  EXPECT_EQ(res.num_invocations, trace.num_steps());
  EXPECT_EQ(res.num_switch_events, trace.num_steps() - 1);
}

TEST(Simulator, DnorSwitchesFarLessThanInor) {
  const auto trace = test_trace(60.0);
  core::DnorReconfigurer dnor(kDev, kConv);
  core::InorReconfigurer inor(kDev, kConv);
  const SimulationResult r_dnor = run_simulation(dnor, trace);
  const SimulationResult r_inor = run_simulation(inor, trace);
  EXPECT_LT(r_dnor.num_switch_events, r_inor.num_switch_events / 4);
  EXPECT_LT(r_dnor.switch_overhead_j, r_inor.switch_overhead_j);
}

TEST(Simulator, BatteryReceivesEnergy) {
  const auto trace = test_trace();
  core::InorReconfigurer inor(kDev, kConv);
  const SimulationResult res = run_simulation(inor, trace);
  EXPECT_GT(res.battery_energy_j, 0.0);
  EXPECT_LE(res.battery_energy_j, res.energy_output_j + 1e-6);
  EXPECT_GT(res.final_soc, 0.7);  // charged above the initial SOC
}

TEST(Simulator, MeanPowerAndRatioHelpers) {
  const auto trace = test_trace();
  core::InorReconfigurer inor(kDev, kConv);
  const SimulationResult res = run_simulation(inor, trace);
  EXPECT_NEAR(res.mean_power_w(),
              res.energy_output_j / trace.duration_s(), 0.5);
  EXPECT_GT(res.ratio_to_ideal(), 0.5);
  EXPECT_LE(res.ratio_to_ideal(), 1.0);
}

TEST(Simulator, EmptyTraceThrows) {
  thermal::TemperatureTrace empty(0.5, 4);
  core::InorReconfigurer inor(kDev, kConv);
  EXPECT_THROW(run_simulation(inor, empty), std::invalid_argument);
}

TEST(Simulator, ControllersAreResetBetweenRuns) {
  const auto trace = test_trace();
  core::DnorReconfigurer dnor(kDev, kConv);
  const SimulationResult first = run_simulation(dnor, trace);
  const SimulationResult second = run_simulation(dnor, trace);
  // Decisions are deterministic; only the wall-clock compute time folded
  // into the overhead energy varies between runs.
  EXPECT_NEAR(first.energy_output_j, second.energy_output_j,
              1e-3 * first.energy_output_j);
  EXPECT_EQ(first.num_switch_events, second.num_switch_events);
}

}  // namespace
}  // namespace tegrec::sim
