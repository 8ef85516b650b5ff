// End-to-end temperature trace: per-module hot-side temperatures over time.
//
// This is the interface between the thermal substrate and everything above
// it (predictors, reconfiguration algorithms, simulator).  A trace holds,
// for every time step, the hot-side temperature of each of the N TEG
// modules plus the ambient temperature — exactly the T_{t,i} inputs of
// Algorithms 1 and 2 in the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "thermal/ambient.hpp"
#include "thermal/engine_thermal.hpp"
#include "thermal/radiator.hpp"

namespace tegrec::thermal {

/// Time-indexed module temperature matrix.
class TemperatureTrace {
 public:
  TemperatureTrace() = default;
  TemperatureTrace(double dt_s, std::size_t num_modules);

  double dt_s() const { return dt_s_; }
  std::size_t num_modules() const { return num_modules_; }
  std::size_t num_steps() const { return ambient_c_.size(); }
  double duration_s() const { return dt_s_ * static_cast<double>(num_steps()); }

  /// Appends one time step.  `module_temps_c.size()` must equal num_modules.
  void append(const std::vector<double>& module_temps_c, double ambient_c);

  /// Hot-side temperature of module i at step t [deg C].
  double temperature_c(std::size_t step, std::size_t module) const;
  /// All module temperatures at step t.
  std::vector<double> step_temperatures(std::size_t step) const;
  /// Per-module dT(i) = T_hot(i) - T_ambient at step t.
  std::vector<double> step_delta_t(std::size_t step) const;
  double ambient_c(std::size_t step) const;

  /// Index of the step at/after a time in seconds (clamped to the end).
  std::size_t step_at_time(double time_s) const;

  /// Sub-trace covering [t0, t1) seconds.
  TemperatureTrace slice(double t0_s, double t1_s) const;

  /// Writes `time_s,ambient_c,t0,...` rows; sim::load_trace_csv reads them.
  void save_csv(const std::string& path) const;

 private:
  double dt_s_ = 1.0;
  std::size_t num_modules_ = 0;
  std::vector<double> temps_c_;    ///< row-major: step * num_modules + module
  std::vector<double> ambient_c_;  ///< per step
};

/// Everything needed to regenerate the paper's experimental input.
struct TraceGeneratorConfig {
  RadiatorLayout layout;
  EngineThermalParams engine;
  VehicleParams vehicle;
  /// Heatsink/ambient conditions over the drive (constant 25 C by default;
  /// set drift/steps/noise for weather or altitude scenarios).
  AmbientProfile ambient;
  std::vector<DriveSegment> segments = default_porter_cycle();
  double sample_dt_s = 0.5;  ///< trace sampling period (algorithms run on this)
  double sim_dt_s = 0.1;     ///< internal ODE step
  /// First-order time constant of the fin/module stack [s]: the surface
  /// temperature follows the quasi-static heat-exchanger solution through a
  /// low-pass, so airflow transients do not teleport the whole profile
  /// within one sample (and the paper's sub-percent 1 s prediction MAPE is
  /// physically attainable).
  double surface_time_constant_s = 8.0;
  std::uint64_t seed = 2018;
};

/// Runs drive cycle -> cooling loop -> radiator surface sampling and packs
/// the result into a TemperatureTrace of `layout.num_modules` columns.
TemperatureTrace generate_trace(const TraceGeneratorConfig& config);

/// Convenience: the default 800 s, 100-module trace used across benches.
TemperatureTrace default_experiment_trace(std::uint64_t seed = 2018);

}  // namespace tegrec::thermal
