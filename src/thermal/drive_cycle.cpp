#include "thermal/drive_cycle.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tegrec::thermal {

namespace {

// kStopStart signal schedule (fractions of one period): accelerate/cruise,
// brake to rest, then dwell at the light with the engine stopped.
constexpr double kStopStartDefaultPeriodS = 55.0;
constexpr double kStopStartGoFraction = 0.50;
constexpr double kStopStartBrakeFraction = 0.14;  // rest of the period dwells

// kColdStart warm-up: stationary fast idle before drive-away, and the
// decaying cold-friction/fast-idle fuel surcharge.
constexpr double kColdStartIdleFractionMax = 0.25;
constexpr double kColdStartIdleCapS = 120.0;
constexpr double kColdStartSurchargeKw = 2.5;
constexpr double kColdStartSurchargeTauS = 150.0;

// kBatchCycle firing schedule: high fire, modulation ramp down, low fire,
// modulation ramp up (fractions of one period).
constexpr double kBatchDefaultPeriodS = 120.0;
constexpr double kBatchHighFraction = 0.55;
constexpr double kBatchRampFraction = 0.05;

double stop_start_period(const DriveSegment& seg) {
  return seg.period_s > 0.0 ? seg.period_s : kStopStartDefaultPeriodS;
}

/// Phase within the current signal cycle as a fraction of the period, and
/// the schedule's stopped-dwell window — the single source of truth both
/// the speed tracker and the engine-off predicate read, so "target speed
/// is zero because we are dwelling" and "the idle-stop controller may
/// kill the engine" can never drift apart.
double stop_start_phase(const DriveSegment& seg, double t_in_segment) {
  const double period = stop_start_period(seg);
  return std::fmod(t_in_segment, period) / period;
}

bool stop_start_in_dwell(double phase) {
  return phase >= kStopStartGoFraction + kStopStartBrakeFraction;
}

double cold_start_idle_s(const DriveSegment& seg) {
  return std::min(kColdStartIdleFractionMax * seg.duration_s,
                  kColdStartIdleCapS);
}

}  // namespace

std::vector<DriveSegment> default_porter_cycle() {
  using K = DriveSegment::Kind;
  return {
      {K::kIdle, 40.0, 0.0, 0.0},     // warm idle at departure
      {K::kUrban, 160.0, 32.0, 0.0},  // stop-and-go city blocks
      {K::kCruise, 120.0, 62.0, 0.0}, // arterial road
      {K::kHill, 100.0, 45.0, 5.5},   // loaded climb, peak coolant temp
      {K::kCruise, 180.0, 88.0, 0.0}, // highway stretch
      {K::kUrban, 140.0, 28.0, 0.0},  // back into town
      {K::kIdle, 60.0, 0.0, 0.0},     // final idle
  };
}

double engine_power_kw(const VehicleParams& vehicle, double speed_kmh,
                       double accel_ms2, double grade_percent) {
  if (speed_kmh < 0.0) throw std::invalid_argument("engine_power_kw: speed < 0");
  const double v = speed_kmh / 3.6;
  const double g = 9.81;
  const double grade = grade_percent / 100.0;
  const double f_aero = 0.5 * vehicle.air_density_kg_m3 * vehicle.drag_coefficient *
                        vehicle.frontal_area_m2 * v * v;
  const double f_roll = vehicle.rolling_resistance * vehicle.mass_kg * g;
  const double f_grade = vehicle.mass_kg * g * grade;
  const double f_inertia = vehicle.mass_kg * accel_ms2;
  const double wheel_power_w = (f_aero + f_roll + f_grade + f_inertia) * v;
  double engine_w = wheel_power_w / vehicle.driveline_efficiency;
  engine_w = std::max(engine_w, 0.0);  // no regen on a diesel pickup
  const double total_kw = vehicle.idle_power_kw + engine_w / 1000.0;
  return std::min(total_kw, vehicle.max_engine_power_kw);
}

bool is_process_kind(DriveSegment::Kind kind) {
  return kind == DriveSegment::Kind::kSteadyProcess ||
         kind == DriveSegment::Kind::kLoadRamp ||
         kind == DriveSegment::Kind::kBatchCycle;
}

double process_power_kw(const DriveSegment& seg, double t_in_segment) {
  switch (seg.kind) {
    case DriveSegment::Kind::kSteadyProcess:
      return seg.process_power_kw;
    case DriveSegment::Kind::kLoadRamp: {
      const double x =
          seg.duration_s > 0.0
              ? std::clamp(t_in_segment / seg.duration_s, 0.0, 1.0)
              : 1.0;
      return seg.process_power_kw +
             (seg.process_power_end_kw - seg.process_power_kw) * x;
    }
    case DriveSegment::Kind::kBatchCycle: {
      // High fire -> modulation ramp -> low fire -> modulation ramp back.
      // The ramps model burner turndown, which is never instantaneous.
      const double period =
          seg.period_s > 0.0 ? seg.period_s : kBatchDefaultPeriodS;
      const double phase = std::fmod(t_in_segment, period) / period;
      const double high = seg.process_power_kw;
      const double low = seg.process_power_end_kw;
      const double ramp = kBatchRampFraction;
      const double high_end = kBatchHighFraction;
      if (phase < high_end) return high;
      if (phase < high_end + ramp) {
        return high + (low - high) * (phase - high_end) / ramp;
      }
      if (phase < 1.0 - ramp) return low;
      return low + (high - low) * (phase - (1.0 - ramp)) / ramp;
    }
    default:
      throw std::invalid_argument(
          "process_power_kw: not a process-load segment kind");
  }
}

namespace {

// Smoothly tracks a target speed with bounded acceleration, adding
// segment-appropriate fluctuation (stop-go oscillation for urban, mild
// ripple for cruise, signal phases for stop-start, a fast-idle hold plus
// gentle drive-away for cold start).  Process-load kinds pin the speed to
// zero.
class SpeedTracker {
 public:
  explicit SpeedTracker(util::Rng& rng) : rng_(rng) {}

  double step(const DriveSegment& seg, double t_in_segment, double dt) {
    if (is_process_kind(seg.kind)) {
      speed_ = 0.0;
      return speed_;
    }
    double target = seg.target_speed_kmh;
    bool stationary_phase = false;
    switch (seg.kind) {
      case DriveSegment::Kind::kIdle:
        target = 0.0;
        stationary_phase = true;
        break;
      case DriveSegment::Kind::kUrban: {
        // Stop-and-go: ~40 s light cycle, dips to zero at intersections.
        const double phase = std::sin(2.0 * M_PI * t_in_segment / 42.0);
        target = seg.target_speed_kmh * std::max(0.0, 0.55 + 0.75 * phase);
        break;
      }
      case DriveSegment::Kind::kCruise:
        target = seg.target_speed_kmh *
                 (1.0 + 0.04 * std::sin(2.0 * M_PI * t_in_segment / 60.0));
        break;
      case DriveSegment::Kind::kHill:
        target = seg.target_speed_kmh *
                 (1.0 + 0.06 * std::sin(2.0 * M_PI * t_in_segment / 35.0));
        break;
      case DriveSegment::Kind::kStopStart: {
        // Signalised traffic: launch and hold, brake to rest, dwell.
        const double phase = stop_start_phase(seg, t_in_segment);
        if (phase < kStopStartGoFraction) {
          target = seg.target_speed_kmh;
        } else {
          target = 0.0;
          stationary_phase = stop_start_in_dwell(phase);
        }
        break;
      }
      case DriveSegment::Kind::kColdStart: {
        // Warm-up idle first, then a gentle ramp up to the target (cold
        // driveline: the driver keeps revs and acceleration down).
        const double idle_s = cold_start_idle_s(seg);
        if (t_in_segment < idle_s) {
          target = 0.0;
          stationary_phase = true;
        } else {
          const double drive_s = std::max(seg.duration_s - idle_s, 1.0);
          const double x = std::clamp((t_in_segment - idle_s) / (0.5 * drive_s),
                                      0.0, 1.0);
          target = seg.target_speed_kmh * x *
                   (1.0 + 0.03 * std::sin(2.0 * M_PI * t_in_segment / 50.0));
        }
        break;
      }
      default:
        break;
    }
    target += rng_.gaussian(0.0, stationary_phase ? 0.0 : 0.8);
    target = std::max(target, 0.0);

    double max_accel_kmh_s = 7.5;   // ~2.1 m/s^2
    const double max_brake_kmh_s = 12.0;  // ~3.3 m/s^2
    if (seg.kind == DriveSegment::Kind::kColdStart) {
      max_accel_kmh_s = 4.0;  // gentle launches on a cold driveline
    }
    const double delta = std::clamp(target - speed_, -max_brake_kmh_s * dt,
                                    max_accel_kmh_s * dt);
    speed_ = std::max(speed_ + delta, 0.0);
    return speed_;
  }

  double speed() const { return speed_; }

 private:
  util::Rng& rng_;
  double speed_ = 0.0;
};

// True while a kStopStart segment is inside its engine-off dwell: the
// schedule says "stopped" and the vehicle has actually come to rest (the
// idle-stop controller never kills the engine mid-brake).
bool stop_start_engine_off(const DriveSegment& seg, double t_in_segment,
                           double speed_kmh) {
  if (seg.kind != DriveSegment::Kind::kStopStart) return false;
  return stop_start_in_dwell(stop_start_phase(seg, t_in_segment)) &&
         speed_kmh < 0.5;
}

}  // namespace

DriveCycle generate_drive_cycle(const std::vector<DriveSegment>& segments,
                                const VehicleParams& vehicle, double dt_s,
                                std::uint64_t seed) {
  if (!(dt_s > 0.0) || !std::isfinite(dt_s)) {
    throw std::invalid_argument(
        "generate_drive_cycle: dt must be finite and > 0");
  }
  if (segments.empty()) {
    throw std::invalid_argument("generate_drive_cycle: no segments");
  }
  // Durations come from spec files and sweeps: reject what would reach
  // llround out of range (UB), a negative step count (a near-endless loop
  // once cast to size_t) or a cycle too long to hold in memory, before
  // generating anything.
  std::vector<std::size_t> segment_steps;
  segment_steps.reserve(segments.size());
  std::size_t total_steps = 0;
  for (const DriveSegment& seg : segments) {
    const double steps = seg.duration_s / dt_s;
    if (!(seg.duration_s >= 0.0) ||
        !(steps <= static_cast<double>(kMaxDriveCycleSteps))) {
      throw std::invalid_argument(
          "generate_drive_cycle: segment durations must be finite, >= 0 and "
          "at most 2^28 steps");
    }
    segment_steps.push_back(static_cast<std::size_t>(std::llround(steps)));
    total_steps += segment_steps.back();
    if (total_steps > kMaxDriveCycleSteps) {
      throw std::invalid_argument(
          "generate_drive_cycle: the cycle exceeds 2^28 steps");
    }
  }
  util::Rng rng(seed);
  SpeedTracker tracker(rng);

  DriveCycle cycle;
  cycle.dt_s = dt_s;
  cycle.speed_kmh.reserve(total_steps);
  cycle.engine_power_kw.reserve(total_steps);
  cycle.engine_on.reserve(total_steps);
  double prev_speed = 0.0;
  for (std::size_t j = 0; j < segments.size(); ++j) {
    const DriveSegment& seg = segments[j];
    const std::size_t steps = segment_steps[j];
    for (std::size_t k = 0; k < steps; ++k) {
      const double t_in = static_cast<double>(k) * dt_s;
      const double v = tracker.step(seg, t_in, dt_s);
      const double accel = (v - prev_speed) / 3.6 / dt_s;
      double power_kw = 0.0;
      bool on = true;
      if (is_process_kind(seg.kind)) {
        // Process-load model: the firing schedule is the power series.  A
        // ~1% combustion ripple stands in for burner/fuel variability; the
        // pilot/auxiliary load keeps the plant above zero between batches.
        double firing = process_power_kw(seg, t_in);
        firing += rng.gaussian(0.0, 0.01 * std::max(firing, 1.0));
        power_kw = std::clamp(firing + vehicle.idle_power_kw, 0.0,
                              vehicle.max_engine_power_kw);
      } else if (stop_start_engine_off(seg, t_in, v)) {
        // Idle-stop dwell: combustion is off, so the heat input is exactly
        // zero and the coolant cools until the next launch.
        power_kw = 0.0;
        on = false;
      } else {
        power_kw = engine_power_kw(vehicle, v, accel, seg.grade_percent);
        if (seg.kind == DriveSegment::Kind::kColdStart) {
          // Fast idle plus cold-friction surcharge, decaying as oil and
          // combustion chambers warm.
          power_kw = std::min(
              power_kw + kColdStartSurchargeKw *
                             std::exp(-t_in / kColdStartSurchargeTauS),
              vehicle.max_engine_power_kw);
        }
      }
      cycle.speed_kmh.push_back(v);
      cycle.engine_power_kw.push_back(power_kw);
      cycle.engine_on.push_back(on ? 1 : 0);
      prev_speed = v;
    }
  }
  return cycle;
}

const std::vector<std::pair<DriveSegment::Kind, const char*>>&
segment_kind_names() {
  static const std::vector<std::pair<DriveSegment::Kind, const char*>> names =
      {{DriveSegment::Kind::kIdle, "idle"},
       {DriveSegment::Kind::kUrban, "urban"},
       {DriveSegment::Kind::kCruise, "cruise"},
       {DriveSegment::Kind::kHill, "hill"},
       {DriveSegment::Kind::kStopStart, "stop_start"},
       {DriveSegment::Kind::kColdStart, "cold_start"},
       {DriveSegment::Kind::kSteadyProcess, "steady_process"},
       {DriveSegment::Kind::kLoadRamp, "load_ramp"},
       {DriveSegment::Kind::kBatchCycle, "batch_cycle"}};
  return names;
}

}  // namespace tegrec::thermal
