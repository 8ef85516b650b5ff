// Incremental simulation stepper — the streaming decomposition of
// run_simulation().
//
// SimStepper holds the full per-run state of the harvesting simulator
// (controller, converter, battery, switch fabric, accumulators) and
// consumes one TraceSample at a time: feed it the samples of a
// TemperatureTrace in order and its result() is bit-identical to the batch
// run_simulation() — which is now literally a thin loop over a stepper
// (tests/test_stepper.cpp enforces the identity).  Each step() does a
// bounded amount of work on the sample in hand and never waits for future
// samples, so live telemetry (sim/telemetry.hpp) can drive it with bounded
// per-step latency.
//
// Checkpoint/restore: state() snapshots every mutable field into a
// StepperState (the controller contributes an opaque blob via its
// checkpoint hooks); the versioned, fingerprint-stamped codec in
// sim/checkpoint.hpp turns that snapshot into bytes, and the stream server
// (sim/stream_server.hpp) owns the file they are published to.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/reconfigurer.hpp"
#include "power/battery.hpp"
#include "power/converter.hpp"
#include "sim/simulator.hpp"
#include "switchfab/switch_network.hpp"
#include "teg/array_evaluator.hpp"
#include "teg/linear_source.hpp"

namespace tegrec::sim {

/// One sensed time step of a live temperature feed: the same per-module
/// hot-side temperatures + ambient a TemperatureTrace row carries.
struct TraceSample {
  double time_s = 0.0;
  std::vector<double> module_temps_c;
  double ambient_c = 0.0;
};

/// Snapshot of a SimStepper's entire mutable state.  Serialised field by
/// field in src/sim/checkpoint.cpp, whose field-count static_assert fails
/// the build when a state field is added without serialising it, instead
/// of silently resuming a different simulation.
struct StepperState {
  std::size_t steps_consumed = 0;
  bool has_fabric = false;               ///< first config installed yet?
  std::vector<std::size_t> fabric_group_starts;  ///< wired config (has_fabric)
  double battery_soc = 0.0;
  double battery_energy_j = 0.0;
  std::string controller_state;          ///< opaque Reconfigurer blob
  SimulationResult partial;              ///< result() at snapshot time
};

/// Value-shaped incremental simulator over a borrowed controller.  The
/// controller must outlive the stepper; it is reset() on construction.
class SimStepper {
 public:
  /// `dt_s` is the control-period grid the samples must arrive on;
  /// `num_modules` the expected width of every sample.
  SimStepper(core::Reconfigurer& controller, double dt_s,
             std::size_t num_modules, const SimulationOptions& options = {});

  double dt_s() const { return dt_s_; }
  std::size_t num_modules() const { return num_modules_; }
  std::size_t steps_consumed() const { return partial_.steps.size(); }
  /// Grid time the next sample must carry: steps_consumed() * dt.
  double next_time_s() const {
    return static_cast<double>(steps_consumed()) * dt_s_;
  }

  /// Consumes one sample (bounded work, never blocks on future samples)
  /// and returns this period's record.  Validates as the telemetry reader
  /// does: wrong width or non-finite values throw std::invalid_argument,
  /// and the timestamp must land on this stepper's next grid point
  /// (nearest-grid within half a step) or std::invalid_argument is thrown
  /// — gap and reordering policy belongs to the telemetry layer, the
  /// stepper only ever advances one period at a time.
  StepRecord step(const TraceSample& sample);

  /// The run-so-far aggregate.  Valid at any point of a streamed run,
  /// including before the first step (all totals zero, see the partial-run
  /// semantics notes on SimulationResult).
  SimulationResult result() const;

  /// Group starts of the currently wired fabric configuration; empty
  /// before the first step installs one.
  std::vector<std::size_t> current_group_starts() const;

  /// True when the underlying controller can round-trip its state.
  bool checkpointable() const { return controller_->supports_checkpoint(); }

  /// Snapshot / reinstate the full mutable state.  state() throws
  /// std::logic_error when !checkpointable(); restore_state() validates
  /// the snapshot's internal consistency and throws std::runtime_error on
  /// a corrupt one (nothing is applied on failure).
  StepperState state() const;
  void restore_state(const StepperState& state);

 private:
  core::Reconfigurer* controller_;
  double dt_s_;
  std::size_t num_modules_;
  SimulationOptions options_;
  power::Converter converter_;
  power::Battery battery_;
  std::unique_ptr<switchfab::SwitchNetwork> fabric_;  // built on first config
  SimulationResult partial_;  ///< accumulators + steps (derived fields stale)
  // Per-step scratch, reused across steps; never part of state().
  std::vector<double> delta_t_;
  std::vector<teg::LinearSource> ports_;
  teg::ArrayEvaluator evaluator_;
};

}  // namespace tegrec::sim
