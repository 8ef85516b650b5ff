#include "sim/stepper.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/objective.hpp"
#include "teg/array.hpp"
#include "teg/array_evaluator.hpp"

namespace tegrec::sim {

SimStepper::SimStepper(core::Reconfigurer& controller, double dt_s,
                       std::size_t num_modules,
                       const SimulationOptions& options)
    : controller_(&controller), dt_s_(dt_s), num_modules_(num_modules),
      options_(options), converter_(options.converter),
      battery_(options.battery) {
  if (!std::isfinite(dt_s) || dt_s <= 0.0) {
    throw std::invalid_argument("SimStepper: dt must be finite and > 0");
  }
  if (num_modules == 0) {
    throw std::invalid_argument("SimStepper: num_modules must be > 0");
  }
  controller_->reset();
  partial_.algorithm = controller_->name();
}

StepRecord SimStepper::step(const TraceSample& sample) {
  // Telemetry-grade validation: shape, finiteness, and grid placement are
  // all checked before any state mutates, so a rejected sample leaves the
  // stepper exactly where it was.
  if (sample.module_temps_c.size() != num_modules_) {
    throw std::invalid_argument("SimStepper::step: sample has " +
                                std::to_string(sample.module_temps_c.size()) +
                                " modules, expected " +
                                std::to_string(num_modules_));
  }
  if (!std::isfinite(sample.ambient_c)) {
    throw std::invalid_argument("SimStepper::step: non-finite ambient");
  }
  for (double temp : sample.module_temps_c) {
    if (!std::isfinite(temp)) {
      throw std::invalid_argument(
          "SimStepper::step: non-finite module temperature");
    }
  }
  const double expected_time_s = next_time_s();
  // Nearest-grid acceptance, the telemetry reader's explicit-dt rule: any
  // stamp within half a step of the expected grid point is that point.
  const double grid_tolerance_s = 0.5 * dt_s_;
  if (!std::isfinite(sample.time_s) ||
      std::abs(sample.time_s - expected_time_s) > grid_tolerance_s) {
    throw std::invalid_argument(
        "SimStepper::step: sample time " + std::to_string(sample.time_s) +
        " is not the next grid point " + std::to_string(expected_time_s) +
        " (gap/reorder handling belongs to the telemetry layer)");
  }

  // From here on this is run_simulation()'s historical loop body, verbatim
  // modulo spelling: any divergence breaks the batch/stream bit-identity
  // the tests enforce.  The record's time is the *grid* time, not the
  // sample's (which may sit anywhere inside the half-step tolerance).
  const double dt = dt_s_;
  StepRecord rec;
  rec.time_s = expected_time_s;

  // TemperatureTrace::step_delta_t's clamp, applied to the live sample.
  delta_t_.assign(sample.module_temps_c.begin(), sample.module_temps_c.end());
  for (double& t : delta_t_) t = std::max(0.0, t - sample.ambient_c);
  const double ambient = sample.ambient_c;
  const core::UpdateResult upd =
      controller_->update(rec.time_s, delta_t_, ambient);

  rec.invoked = upd.invoked;
  rec.switched = upd.switched;
  if (upd.invoked) ++partial_.num_invocations;

  // Actuate the fabric.  The very first configuration is the pre-drive
  // wiring and costs nothing.
  bool actuated = false;
  if (!fabric_) {
    fabric_ =
        std::make_unique<switchfab::SwitchNetwork>(num_modules_, upd.config);
  } else if (upd.actuate) {
    rec.switch_actuations = fabric_->apply(upd.config);
    actuated = true;
    ++partial_.num_switch_events;
    partial_.total_switch_actuations += rec.switch_actuations;
  }

  // Electrical evaluation at this period's temperatures, through the
  // cached prefix aggregates (no per-step O(N) port summation).
  teg::module_ports(options_.device, delta_t_, ambient, ports_);
  evaluator_.assign(ports_);
  rec.ideal_power_w = evaluator_.ideal_power_w();
  rec.gross_power_w = core::config_power_w(evaluator_, converter_, upd.config);

  // Overhead: an actuation blanks the output for sensing + compute +
  // switching + MPPT re-settle (Section III.C, model of [5]).  The compute
  // term is the controller's declared AlgorithmCost budget — deterministic
  // data, never measured wall-clock — so EHTR is charged more than DNOR
  // per invocation regardless of implementation speedups.
  double net_energy_j = rec.gross_power_w * dt;
  if (options_.charge_overhead && actuated) {
    const switchfab::OverheadCost cost = switchfab::reconfiguration_cost(
        options_.overhead, rec.switch_actuations, rec.gross_power_w,
        controller_->algorithm_cost().budget_s(options_.overhead));
    rec.overhead_energy_j = std::min(cost.energy_j, net_energy_j);
    net_energy_j -= rec.overhead_energy_j;
    partial_.switch_overhead_j += rec.overhead_energy_j;
  }
  rec.net_power_w = net_energy_j / dt;

  battery_.absorb(rec.net_power_w, dt);
  partial_.energy_output_j += net_energy_j;
  partial_.ideal_energy_j += rec.ideal_power_w * dt;
  partial_.steps.push_back(rec);
  return rec;
}

SimulationResult SimStepper::result() const {
  SimulationResult result = partial_;
  result.battery_energy_j = battery_.energy_absorbed_j();
  result.final_soc = battery_.soc();
  return result;
}

std::vector<std::size_t> SimStepper::current_group_starts() const {
  if (!fabric_) return {};
  return fabric_->current_config().group_starts();
}

StepperState SimStepper::state() const {
  StepperState state;
  state.steps_consumed = steps_consumed();
  state.has_fabric = fabric_ != nullptr;
  if (fabric_) {
    state.fabric_group_starts = fabric_->current_config().group_starts();
  }
  state.battery_soc = battery_.soc();
  state.battery_energy_j = battery_.energy_absorbed_j();
  state.controller_state = controller_->checkpoint_state();  // throws if n/a
  state.partial = result();
  return state;
}

void SimStepper::restore_state(const StepperState& state) {
  // Validate + rebuild everything fallible into locals first; members are
  // only assigned once nothing can throw, so a corrupt snapshot leaves the
  // stepper (and its controller) untouched.
  if (state.steps_consumed != state.partial.steps.size()) {
    throw std::runtime_error(
        "SimStepper::restore_state: steps_consumed does not match the "
        "partial step table");
  }
  // has_fabric implies a non-empty starts list (every valid ArrayConfig
  // begins with group 0) and vice versa.
  if (state.has_fabric == state.fabric_group_starts.empty()) {
    throw std::runtime_error(
        "SimStepper::restore_state: fabric flag/config mismatch");
  }
  std::unique_ptr<switchfab::SwitchNetwork> fabric;
  if (state.has_fabric) {
    teg::ArrayConfig config(state.fabric_group_starts,
                            num_modules_);  // validates the starts
    fabric = std::make_unique<switchfab::SwitchNetwork>(num_modules_, config);
  }
  power::Battery battery(options_.battery);
  try {
    battery.restore_state(state.battery_soc, state.battery_energy_j);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("SimStepper::restore_state: ") +
                             e.what());
  }
  // The controller rejects a corrupt blob before mutating itself, so doing
  // it last keeps the whole restore all-or-nothing.
  controller_->restore_checkpoint_state(state.controller_state);
  fabric_ = std::move(fabric);
  battery_ = battery;
  partial_ = state.partial;
  partial_.algorithm = controller_->name();
}

}  // namespace tegrec::sim
