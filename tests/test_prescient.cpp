#include "core/prescient.hpp"

#include <gtest/gtest.h>

#include "core/dnor.hpp"
#include "core/inor.hpp"
#include "sim/simulator.hpp"
#include "thermal/trace.hpp"

namespace tegrec::core {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

thermal::TemperatureTrace short_trace() {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = 20;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 60.0, 32.0, 0.0}};
  config.seed = 21;
  return thermal::generate_trace(config);
}

TEST(Prescient, ValidatesConstruction) {
  const thermal::TemperatureTrace trace = short_trace();
  PrescientParams p;
  p.control_period_s = 0.0;
  EXPECT_THROW(PrescientReconfigurer(kDev, kConv, trace, p),
               std::invalid_argument);
  thermal::TemperatureTrace empty(0.5, 4);
  EXPECT_THROW(PrescientReconfigurer(kDev, kConv, empty, PrescientParams{}),
               std::invalid_argument);
}

TEST(Prescient, DecidesOnSameCadenceAsDnor) {
  const thermal::TemperatureTrace trace = short_trace();
  PrescientReconfigurer oracle(kDev, kConv, trace);
  const auto r0 = oracle.update(0.0, trace.step_delta_t(0), trace.ambient_c(0));
  EXPECT_TRUE(r0.invoked);
  const auto r1 = oracle.update(0.5, trace.step_delta_t(1), trace.ambient_c(1));
  EXPECT_FALSE(r1.invoked);  // holds until tp + 1 = 3 s
  const auto r6 = oracle.update(3.0, trace.step_delta_t(6), trace.ambient_c(6));
  EXPECT_TRUE(r6.invoked);
}

TEST(Prescient, StaticTemperaturesNeverReswitch) {
  thermal::TemperatureTrace frozen(0.5, 10);
  std::vector<double> temps{60, 56, 52, 48, 45, 42, 39, 37, 35, 33};
  for (int t = 0; t < 60; ++t) frozen.append(temps, 25.0);
  PrescientReconfigurer oracle(kDev, kConv, frozen);
  std::size_t switches = 0;
  for (std::size_t t = 0; t < frozen.num_steps(); ++t) {
    const UpdateResult r = oracle.update(0.5 * static_cast<double>(t),
                                         frozen.step_delta_t(t),
                                         frozen.ambient_c(t));
    if (r.switched) ++switches;
  }
  EXPECT_EQ(switches, 1u);  // installation only
}

TEST(Prescient, AtLeastAsGoodAsDnorOnEnergy) {
  // The oracle runs DNOR's rule with perfect foresight, so its harvested
  // energy must match or beat MLR-driven DNOR (small tolerance: both pay
  // installation and quantised decisions).
  const thermal::TemperatureTrace trace = short_trace();
  PrescientReconfigurer oracle(kDev, kConv, trace);
  DnorReconfigurer dnor(kDev, kConv);
  const sim::SimulationResult r_oracle = sim::run_simulation(oracle, trace);
  const sim::SimulationResult r_dnor = sim::run_simulation(dnor, trace);
  EXPECT_GE(r_oracle.energy_output_j, 0.995 * r_dnor.energy_output_j);
}

TEST(Prescient, BeatsPeriodicInor) {
  const thermal::TemperatureTrace trace = short_trace();
  PrescientReconfigurer oracle(kDev, kConv, trace);
  InorReconfigurer inor(kDev, kConv);
  const sim::SimulationResult r_oracle = sim::run_simulation(oracle, trace);
  const sim::SimulationResult r_inor = sim::run_simulation(inor, trace);
  EXPECT_GT(r_oracle.energy_output_j, r_inor.energy_output_j);
}

TEST(Prescient, ResetClearsState) {
  const thermal::TemperatureTrace trace = short_trace();
  PrescientReconfigurer oracle(kDev, kConv, trace);
  oracle.update(0.0, trace.step_delta_t(0), trace.ambient_c(0));
  oracle.reset();
  // A reset oracle holds nothing: its first update installs afresh.
  const UpdateResult r =
      oracle.update(0.0, trace.step_delta_t(0), trace.ambient_c(0));
  EXPECT_TRUE(r.invoked);
  EXPECT_TRUE(r.switched);
  EXPECT_TRUE(r.actuate);
}

}  // namespace
}  // namespace tegrec::core
