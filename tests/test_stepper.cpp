// SimStepper: the streaming decomposition of run_simulation() must be
// *bit-identical* to the batch path — same controllers, same traces, same
// doubles — and a checkpoint cycle through the on-disk codec mid-run must
// not perturb a single bit of the remainder.  These are the tentpole
// invariants of the streaming subsystem; everything else (telemetry
// parsing, the server) builds on them.
#include "sim/stepper.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dnor.hpp"
#include "core/ehtr.hpp"
#include "core/fixed_baseline.hpp"
#include "core/inor.hpp"
#include "predict/bpnn.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"
#include "thermal/scenario.hpp"
#include "thermal/trace.hpp"

namespace tegrec::sim {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

// Two distinct short workloads: a steep urban gradient and a scenario from
// the named registry, shrunk for test speed.
thermal::TemperatureTrace urban_trace() {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = 20;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 30.0, 32.0, 0.0}};
  config.seed = 5;
  return thermal::generate_trace(config);
}

thermal::TemperatureTrace scenario_trace() {
  thermal::TraceGeneratorConfig config = thermal::scenario("winter_cold_start");
  config.layout.num_modules = 16;
  for (auto& segment : config.segments) segment.duration_s *= 0.05;
  return thermal::generate_trace(config);
}

std::vector<thermal::TemperatureTrace> test_traces() {
  std::vector<thermal::TemperatureTrace> traces;
  traces.push_back(urban_trace());
  traces.push_back(scenario_trace());
  return traces;
}

std::unique_ptr<core::Reconfigurer> make_controller(const std::string& scheme,
                                                    std::size_t num_modules) {
  StreamConfig config;
  config.scheme = parse_stream_scheme(scheme);
  config.num_modules = num_modules;
  config.sim.num_threads = 1;
  return make_stream_controller(config);
}

TraceSample sample_at(const thermal::TemperatureTrace& trace, std::size_t t) {
  TraceSample sample;
  sample.time_s = static_cast<double>(t) * trace.dt_s();
  sample.module_temps_c = trace.step_temperatures(t);
  sample.ambient_c = trace.ambient_c(t);
  return sample;
}

/// Bit-exact result comparison: every double compared with EXPECT_EQ, no
/// tolerances anywhere — "close" is not "identical".
void expect_bit_identical(const SimulationResult& a,
                          const SimulationResult& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.energy_output_j, b.energy_output_j);
  EXPECT_EQ(a.switch_overhead_j, b.switch_overhead_j);
  EXPECT_EQ(a.ideal_energy_j, b.ideal_energy_j);
  EXPECT_EQ(a.num_invocations, b.num_invocations);
  EXPECT_EQ(a.num_switch_events, b.num_switch_events);
  EXPECT_EQ(a.total_switch_actuations, b.total_switch_actuations);
  EXPECT_EQ(a.battery_energy_j, b.battery_energy_j);
  EXPECT_EQ(a.final_soc, b.final_soc);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    const StepRecord& x = a.steps[i];
    const StepRecord& y = b.steps[i];
    EXPECT_EQ(x.time_s, y.time_s) << "step " << i;
    EXPECT_EQ(x.gross_power_w, y.gross_power_w) << "step " << i;
    EXPECT_EQ(x.net_power_w, y.net_power_w) << "step " << i;
    EXPECT_EQ(x.ideal_power_w, y.ideal_power_w) << "step " << i;
    EXPECT_EQ(x.invoked, y.invoked) << "step " << i;
    EXPECT_EQ(x.switched, y.switched) << "step " << i;
    EXPECT_EQ(x.switch_actuations, y.switch_actuations) << "step " << i;
    EXPECT_EQ(x.overhead_energy_j, y.overhead_energy_j) << "step " << i;
  }
}

// The tentpole identity: batch == stepper, for every controller on every
// scenario.
TEST(Stepper, BatchEqualsStreamedForEveryScheme) {
  for (const auto& trace : test_traces()) {
    for (const std::string scheme : {"dnor", "inor", "ehtr", "baseline"}) {
      SCOPED_TRACE(scheme + " over " + std::to_string(trace.num_modules()) +
                   " modules");
      SimulationOptions options;
      options.num_threads = 1;
      const auto batch_controller =
          make_controller(scheme, trace.num_modules());
      const SimulationResult batch =
          run_simulation(*batch_controller, trace, options);

      const auto stream_controller =
          make_controller(scheme, trace.num_modules());
      SimStepper stepper(*stream_controller, trace.dt_s(),
                         trace.num_modules(), options);
      for (std::size_t t = 0; t < trace.num_steps(); ++t) {
        stepper.step(sample_at(trace, t));
      }
      expect_bit_identical(batch, stepper.result());
    }
  }
}

// A one-module array has no adjacency and so no switch: every scheme runs,
// batch and stream agree bit for bit, and nothing is ever actuated.
TEST(Stepper, OneModuleArrayRunsEverySchemeWithoutActuations) {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = 1;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 30.0, 32.0, 0.0}};
  config.seed = 5;
  const thermal::TemperatureTrace trace = thermal::generate_trace(config);
  ASSERT_EQ(trace.num_modules(), 1u);
  for (const std::string scheme : {"dnor", "inor", "ehtr", "baseline"}) {
    SCOPED_TRACE(scheme);
    SimulationOptions options;
    options.num_threads = 1;
    const auto batch_controller = make_controller(scheme, 1);
    const SimulationResult batch =
        run_simulation(*batch_controller, trace, options);

    const auto stream_controller = make_controller(scheme, 1);
    SimStepper stepper(*stream_controller, trace.dt_s(), 1, options);
    for (std::size_t t = 0; t < trace.num_steps(); ++t) {
      stepper.step(sample_at(trace, t));
    }
    expect_bit_identical(batch, stepper.result());
    EXPECT_EQ(batch.total_switch_actuations, 0u);
    EXPECT_EQ(stepper.current_group_starts(), std::vector<std::size_t>{0});
  }
}

// Checkpoint-cycle identity: snapshot mid-run, restore into a *fresh*
// controller + stepper, finish both runs — the interrupted run's result
// must be bit-identical to the uninterrupted one.
TEST(Stepper, CheckpointCycleMidRunIsBitIdentical) {
  for (const auto& trace : test_traces()) {
    for (const std::string scheme : {"dnor", "inor", "ehtr", "baseline"}) {
      SCOPED_TRACE(scheme + " over " + std::to_string(trace.num_modules()) +
                   " modules");
      SimulationOptions options;
      options.num_threads = 1;
      const auto reference_controller =
          make_controller(scheme, trace.num_modules());
      SimStepper reference(*reference_controller, trace.dt_s(),
                           trace.num_modules(), options);
      for (std::size_t t = 0; t < trace.num_steps(); ++t) {
        reference.step(sample_at(trace, t));
      }

      const std::size_t cut = trace.num_steps() / 2;
      const auto first_controller =
          make_controller(scheme, trace.num_modules());
      SimStepper first(*first_controller, trace.dt_s(), trace.num_modules(),
                       options);
      for (std::size_t t = 0; t < cut; ++t) first.step(sample_at(trace, t));
      ASSERT_TRUE(first.checkpointable());
      const StepperState snapshot = first.state();

      const auto second_controller =
          make_controller(scheme, trace.num_modules());
      SimStepper second(*second_controller, trace.dt_s(),
                        trace.num_modules(), options);
      second.restore_state(snapshot);
      EXPECT_EQ(second.steps_consumed(), cut);
      for (std::size_t t = cut; t < trace.num_steps(); ++t) {
        second.step(sample_at(trace, t));
      }
      expect_bit_identical(reference.result(), second.result());
    }
  }
}

// run_simulation is now a thin loop over SimStepper; the empty trace still
// short-circuits to an all-zero result.
TEST(Stepper, EmptyResultHasDocumentedPartialSemantics) {
  core::InorReconfigurer inor(kDev, kConv);
  SimStepper stepper(inor, 0.5, 8);
  const SimulationResult empty = stepper.result();
  EXPECT_EQ(empty.steps.size(), 0u);
  EXPECT_EQ(empty.energy_output_j, 0.0);
  EXPECT_EQ(empty.mean_power_w(), 0.0);  // documented: 0.0, not NaN
  EXPECT_EQ(empty.ratio_to_ideal(), 0.0);
  EXPECT_TRUE(stepper.current_group_starts().empty());
}

// Partial totals cover exactly the consumed prefix: feeding k of n steps
// reproduces the first k steps of the full run.
TEST(Stepper, PartialRunTotalsCoverConsumedPrefix) {
  const auto trace = urban_trace();
  SimulationOptions options;
  options.num_threads = 1;
  const auto full_controller = make_controller("inor", trace.num_modules());
  const SimulationResult full = run_simulation(*full_controller, trace, options);

  const std::size_t k = trace.num_steps() / 3;
  const auto controller = make_controller("inor", trace.num_modules());
  SimStepper stepper(*controller, trace.dt_s(), trace.num_modules(), options);
  double energy = 0.0;
  for (std::size_t t = 0; t < k; ++t) {
    energy += stepper.step(sample_at(trace, t)).net_power_w * trace.dt_s();
  }
  const SimulationResult partial = stepper.result();
  ASSERT_EQ(partial.steps.size(), k);
  EXPECT_EQ(partial.energy_output_j, energy);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(partial.steps[i].net_power_w, full.steps[i].net_power_w);
  }
}

// Validation: a bad sample throws and leaves the stepper untouched.
TEST(Stepper, RejectsMalformedSamplesWithoutAdvancing) {
  const auto trace = urban_trace();
  core::InorReconfigurer inor(kDev, kConv);
  SimStepper stepper(inor, trace.dt_s(), trace.num_modules());
  stepper.step(sample_at(trace, 0));
  const SimulationResult before = stepper.result();

  TraceSample wrong_width = sample_at(trace, 1);
  wrong_width.module_temps_c.pop_back();
  EXPECT_THROW(stepper.step(wrong_width), std::invalid_argument);

  TraceSample non_finite = sample_at(trace, 1);
  non_finite.module_temps_c[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(stepper.step(non_finite), std::invalid_argument);

  TraceSample off_grid = sample_at(trace, 1);
  off_grid.time_s += 0.6 * trace.dt_s();  // beyond the half-step tolerance
  EXPECT_THROW(stepper.step(off_grid), std::invalid_argument);

  TraceSample skipped = sample_at(trace, 3);  // a gap, not the next point
  EXPECT_THROW(stepper.step(skipped), std::invalid_argument);

  expect_bit_identical(before, stepper.result());
  stepper.step(sample_at(trace, 1));  // the stream continues cleanly
  EXPECT_EQ(stepper.steps_consumed(), 2u);
}

// DNOR over BPNN is honest about its impurity: the persistent SGD RNG
// makes a refit non-reproducible, so the stepper must refuse to snapshot
// rather than emit a checkpoint that resumes a different future.
TEST(Stepper, BpnnBackedDnorRefusesToCheckpoint) {
  predict::BpnnParams params;
  params.epochs = 2;
  auto dnor = std::make_unique<core::DnorReconfigurer>(
      kDev, kConv, core::DnorParams{},
      std::make_unique<predict::BpnnPredictor>(params));
  SimStepper stepper(*dnor, 0.5, 8);
  EXPECT_FALSE(stepper.checkpointable());
  EXPECT_THROW(stepper.state(), std::logic_error);
}

// A corrupt snapshot is rejected wholesale: nothing about the stepper may
// change when restore_state throws.
TEST(Stepper, RestoreIsAllOrNothing) {
  const auto trace = urban_trace();
  const auto controller = make_controller("inor", trace.num_modules());
  SimStepper stepper(*controller, trace.dt_s(), trace.num_modules());
  for (std::size_t t = 0; t < 6; ++t) stepper.step(sample_at(trace, t));
  const StepperState good = stepper.state();
  const SimulationResult before = stepper.result();

  StepperState bad_counts = good;
  bad_counts.steps_consumed += 1;  // disagrees with the step table
  EXPECT_THROW(stepper.restore_state(bad_counts), std::runtime_error);

  StepperState bad_fabric = good;
  bad_fabric.fabric_group_starts.clear();  // contradicts has_fabric
  EXPECT_THROW(stepper.restore_state(bad_fabric), std::runtime_error);

  StepperState bad_soc = good;
  bad_soc.battery_soc = 2.0;
  EXPECT_THROW(stepper.restore_state(bad_soc), std::runtime_error);

  StepperState bad_blob = good;
  bad_blob.controller_state = "garbage v0\n";
  EXPECT_THROW(stepper.restore_state(bad_blob), std::runtime_error);

  expect_bit_identical(before, stepper.result());
  stepper.step(sample_at(trace, 6));  // still on its original trajectory
  EXPECT_EQ(stepper.steps_consumed(), 7u);
}

// The codec round trip: encode_checkpoint() of a half-run stepper, then
// decode_checkpoint() + restore_state() into a fresh stepper, continues
// bit-identically, and the stamp is enforced.
TEST(Stepper, CheckpointCodecRoundTripContinuesBitIdentically) {
  const auto trace = urban_trace();
  StreamConfig config;
  config.scheme = StreamScheme::kDnor;
  config.dt_s = trace.dt_s();
  config.num_modules = trace.num_modules();
  config.sim.num_threads = 1;
  const std::string stamp = stream_config_fingerprint_text(config);

  const auto reference_controller = make_stream_controller(config);
  SimStepper reference(*reference_controller, config.dt_s, config.num_modules,
                       config.sim);
  for (std::size_t t = 0; t < trace.num_steps(); ++t) {
    reference.step(sample_at(trace, t));
  }

  const std::size_t cut = trace.num_steps() / 2;
  const auto first_controller = make_stream_controller(config);
  SimStepper first(*first_controller, config.dt_s, config.num_modules,
                   config.sim);
  for (std::size_t t = 0; t < cut; ++t) first.step(sample_at(trace, t));
  const std::string bytes =
      encode_checkpoint(first.state(), stamp, /*extra_lines=*/{});

  const auto second_controller = make_stream_controller(config);
  SimStepper second(*second_controller, config.dt_s, config.num_modules,
                    config.sim);
  second.restore_state(decode_checkpoint(bytes, stamp).state);
  for (std::size_t t = cut; t < trace.num_steps(); ++t) {
    second.step(sample_at(trace, t));
  }
  expect_bit_identical(reference.result(), second.result());

  // A different configuration must refuse the same bytes.
  StreamConfig other = config;
  other.control_period_s *= 2.0;
  EXPECT_THROW(decode_checkpoint(bytes, stream_config_fingerprint_text(other)),
               std::runtime_error);
}

}  // namespace
}  // namespace tegrec::sim
