// Synthetic workload generation: drive cycles and industrial duty cycles.
//
// The paper's evaluation uses an 800-second measured drive of a Hyundai
// Porter II pickup; its conclusion points at larger heat sources
// (industrial boilers and heat exchangers).  Without measured traces we
// synthesise the heat-source load profile from composable segments and
// derive the power delivered to the coolant loop from one of two models:
//
//  * Road-load kinds — kIdle, kUrban, kCruise, kHill, kStopStart,
//    kColdStart — synthesise a speed profile (stop-and-go oscillation,
//    cruise ripple, signalised stop-start with engine-off dwells, a
//    cold-start fast-idle + gentle drive-away) and push it through the
//    longitudinal vehicle load equation (engine_power_kw).  kStopStart
//    marks its stopped dwells engine-off, so the coolant genuinely cools
//    between launches; kColdStart adds a decaying cold-friction/fast-idle
//    surcharge on top of the road load.
//
//  * Process-load kinds — kSteadyProcess, kLoadRamp, kBatchCycle — model a
//    fired process (boiler, kiln) instead of a vehicle: speed is
//    identically zero and the power series comes directly from the
//    segment's firing schedule (steady hold, linear ramp, periodic
//    high/low-fire batch cycle with burner modulation ramps), clamped to
//    the rated capacity `VehicleParams::max_engine_power_kw`.
//
// The result feeds the lumped thermal model (thermal/engine_thermal.hpp),
// which does not care whether the heat source is an engine or a burner.
// Named, ready-made combinations live in thermal/scenario.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace tegrec::thermal {

/// One homogeneous stretch of the workload.
struct DriveSegment {
  enum class Kind {
    // Road-load kinds (speed profile -> longitudinal load equation).
    kIdle,       ///< stationary, engine running at accessory load
    kUrban,      ///< stop-and-go city blocks (~42 s light cycle)
    kCruise,     ///< steady arterial/highway cruise with mild ripple
    kHill,       ///< loaded climb at `grade_percent`
    kStopStart,  ///< signalised traffic: launch/brake/dwell cycles with
                 ///< engine-off idle-stop phases (power is exactly zero
                 ///< while stopped, so the coolant cools between launches)
    kColdStart,  ///< below-thermostat warm-up: stationary fast idle, then a
                 ///< gentle drive-away, with a decaying cold-friction
                 ///< surcharge (pair with a low
                 ///< EngineThermalParams::initial_coolant_c soak temperature)
    // Process-load kinds (firing schedule, no vehicle dynamics).
    kSteadyProcess,  ///< constant firing at `process_power_kw`
    kLoadRamp,       ///< linear ramp `process_power_kw` ->
                     ///< `process_power_end_kw` over the segment
    kBatchCycle,     ///< periodic high-fire (`process_power_kw`) / low-fire
                     ///< (`process_power_end_kw`) batch schedule
  };
  Kind kind = Kind::kIdle;
  double duration_s = 60.0;
  double target_speed_kmh = 0.0;  ///< mean speed (road-load kinds)
  double grade_percent = 0.0;     ///< road grade (hill segments)
  // Fields below are appended so the historical 4-element aggregate
  // initialisation `{kind, duration, speed, grade}` keeps compiling.
  /// Firing power for process-load kinds [kW]; the level the segment
  /// starts at (kSteadyProcess holds it, kLoadRamp ramps away from it,
  /// kBatchCycle uses it as the high-fire level).
  double process_power_kw = 0.0;
  /// kLoadRamp: firing power at the segment end; kBatchCycle: low-fire
  /// power between batches [kW].
  double process_power_end_kw = 0.0;
  /// Schedule period [s]: signal cycle for kStopStart, batch cycle for
  /// kBatchCycle.  0 selects the kind's default (55 s signal, 120 s batch).
  double period_s = 0.0;
};

/// Vehicle constants for the road-load equation (3.0 L diesel pickup).
/// Process-load kinds reuse only `idle_power_kw` (pilot/auxiliary load)
/// and `max_engine_power_kw` (rated firing capacity).
struct VehicleParams {
  double mass_kg = 1900.0;
  double frontal_area_m2 = 2.7;
  double drag_coefficient = 0.45;
  double rolling_resistance = 0.012;
  double air_density_kg_m3 = 1.184;
  double driveline_efficiency = 0.9;
  double idle_power_kw = 4.0;      ///< fuel power at idle (accessories etc.)
  double max_engine_power_kw = 96.0;
};

/// Sampled workload: time base plus speed and heat-source power series.
struct DriveCycle {
  double dt_s = 0.1;
  std::vector<double> speed_kmh;
  std::vector<double> engine_power_kw;
  /// Heat source firing per step; false only during kStopStart's engine-off
  /// dwells.  Empty means "always on" (hand-built cycles predate the field).
  std::vector<std::uint8_t> engine_on;

  std::size_t num_steps() const { return speed_kmh.size(); }
  double duration_s() const { return dt_s * static_cast<double>(num_steps()); }
  /// Engine/burner state at a step, tolerant of hand-built cycles that
  /// never filled `engine_on`.
  bool engine_on_at(std::size_t step) const {
    return engine_on.empty() ? true : engine_on[step] != 0;
  }
};

/// The default 800 s mixed cycle used by the experiment reproductions:
/// idle -> urban stop-go -> arterial cruise -> hill climb -> highway ->
/// urban -> idle, mirroring the temperature swings visible in the paper's
/// 120 s plots (Figs. 6-7).
std::vector<DriveSegment> default_porter_cycle();

/// Most steps one generated drive cycle may hold: 310 days at the default
/// 0.1 s step, about 4.6 GB for the cycle's three series.
inline constexpr std::size_t kMaxDriveCycleSteps = std::size_t{1} << 28;

/// Generates the speed/power profile for the given segments.  `seed`
/// controls stochastic fluctuation; the same seed reproduces the same
/// cycle.  Throws std::invalid_argument for a non-finite or non-positive
/// dt, a negative or non-finite segment duration, or a cycle of more than
/// kMaxDriveCycleSteps steps.
DriveCycle generate_drive_cycle(const std::vector<DriveSegment>& segments,
                                const VehicleParams& vehicle, double dt_s,
                                std::uint64_t seed);

/// Road-load mechanical power at the wheels for a steady speed/grade, plus
/// inertial power for the given acceleration; clamped to [0, max engine].
double engine_power_kw(const VehicleParams& vehicle, double speed_kmh,
                       double accel_ms2, double grade_percent);

/// Firing power of a process-load segment at `t_in_segment` seconds into
/// it (before capacity clamping and noise); throws std::invalid_argument
/// for road-load kinds.
double process_power_kw(const DriveSegment& segment, double t_in_segment);

/// True for the industrial duty-cycle kinds driven by the process-load
/// model (speed identically zero, power from the firing schedule).
bool is_process_kind(DriveSegment::Kind kind);

/// All (kind, canonical name) pairs: the names the spec serialiser writes
/// and reads as `trace.gen.segment.<i>.kind` values.
const std::vector<std::pair<DriveSegment::Kind, const char*>>&
segment_kind_names();

}  // namespace tegrec::thermal
