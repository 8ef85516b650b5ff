#include "thermal/drive_cycle.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace tegrec::thermal {
namespace {

TEST(EnginePower, IdleIsAccessoryLoadOnly) {
  const VehicleParams v;
  EXPECT_NEAR(engine_power_kw(v, 0.0, 0.0, 0.0), v.idle_power_kw, 1e-9);
}

TEST(EnginePower, IncreasesWithSpeed) {
  const VehicleParams v;
  double prev = 0.0;
  for (double kmh : {10.0, 30.0, 60.0, 90.0, 120.0}) {
    const double p = engine_power_kw(v, kmh, 0.0, 0.0);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(EnginePower, GradeAddsLoad) {
  const VehicleParams v;
  const double flat = engine_power_kw(v, 50.0, 0.0, 0.0);
  const double hill = engine_power_kw(v, 50.0, 0.0, 6.0);
  EXPECT_GT(hill, flat + 5.0);  // 6% at 50 km/h on 1.9 t: >> 5 kW extra
}

TEST(EnginePower, ClampedToRating) {
  const VehicleParams v;
  EXPECT_LE(engine_power_kw(v, 200.0, 3.0, 15.0), v.max_engine_power_kw);
}

TEST(EnginePower, NoRegenOnDecel) {
  const VehicleParams v;
  // Hard braking: wheel power negative, engine power clamps to accessories.
  EXPECT_NEAR(engine_power_kw(v, 40.0, -4.0, 0.0), v.idle_power_kw, 1e-9);
}

TEST(EnginePower, NegativeSpeedThrows) {
  EXPECT_THROW(engine_power_kw(VehicleParams{}, -1.0, 0.0, 0.0),
               std::invalid_argument);
}

TEST(DriveCycle, DurationMatchesSegments) {
  const auto segments = default_porter_cycle();
  double expected = 0.0;
  for (const auto& s : segments) expected += s.duration_s;
  const DriveCycle cycle =
      generate_drive_cycle(segments, VehicleParams{}, 0.1, 1);
  EXPECT_NEAR(cycle.duration_s(), expected, 0.11);
  EXPECT_EQ(cycle.speed_kmh.size(), cycle.engine_power_kw.size());
}

TEST(DriveCycle, DefaultCycleIs800Seconds) {
  const auto segments = default_porter_cycle();
  double total = 0.0;
  for (const auto& s : segments) total += s.duration_s;
  EXPECT_DOUBLE_EQ(total, 800.0);
}

TEST(DriveCycle, SpeedsNonNegativeAndBounded) {
  const DriveCycle cycle =
      generate_drive_cycle(default_porter_cycle(), VehicleParams{}, 0.1, 2);
  for (double v : cycle.speed_kmh) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 130.0);
  }
}

TEST(DriveCycle, DeterministicForSameSeed) {
  const auto a = generate_drive_cycle(default_porter_cycle(), VehicleParams{}, 0.1, 7);
  const auto b = generate_drive_cycle(default_porter_cycle(), VehicleParams{}, 0.1, 7);
  ASSERT_EQ(a.speed_kmh.size(), b.speed_kmh.size());
  for (std::size_t i = 0; i < a.speed_kmh.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.speed_kmh[i], b.speed_kmh[i]);
  }
}

TEST(DriveCycle, DifferentSeedsDiffer) {
  const auto a = generate_drive_cycle(default_porter_cycle(), VehicleParams{}, 0.1, 1);
  const auto b = generate_drive_cycle(default_porter_cycle(), VehicleParams{}, 0.1, 2);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.speed_kmh.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a.speed_kmh[i] - b.speed_kmh[i]));
  }
  EXPECT_GT(max_diff, 0.5);
}

TEST(DriveCycle, AccelerationBounded) {
  const DriveCycle cycle =
      generate_drive_cycle(default_porter_cycle(), VehicleParams{}, 0.1, 3);
  for (std::size_t i = 1; i < cycle.speed_kmh.size(); ++i) {
    const double accel_kmh_s = (cycle.speed_kmh[i] - cycle.speed_kmh[i - 1]) / 0.1;
    EXPECT_LE(accel_kmh_s, 7.6);
    EXPECT_GE(accel_kmh_s, -12.1);
  }
}

TEST(DriveCycle, UrbanSegmentsReachStops) {
  // The stop-and-go model must actually bring the truck to (near) rest.
  std::vector<DriveSegment> segments{
      {DriveSegment::Kind::kUrban, 200.0, 35.0, 0.0}};
  const DriveCycle cycle = generate_drive_cycle(segments, VehicleParams{}, 0.1, 4);
  double min_speed = 1e9;
  // Skip the initial ramp from standstill.
  for (std::size_t i = 300; i < cycle.speed_kmh.size(); ++i) {
    min_speed = std::min(min_speed, cycle.speed_kmh[i]);
  }
  EXPECT_LT(min_speed, 3.0);
}

TEST(DriveCycle, HighwaySegmentsHoldCruise) {
  std::vector<DriveSegment> segments{
      {DriveSegment::Kind::kCruise, 120.0, 90.0, 0.0}};
  const DriveCycle cycle = generate_drive_cycle(segments, VehicleParams{}, 0.1, 5);
  std::vector<double> tail(cycle.speed_kmh.begin() + 600, cycle.speed_kmh.end());
  EXPECT_NEAR(util::mean(tail), 90.0, 8.0);
}

TEST(DriveCycle, InvalidArgsThrow) {
  EXPECT_THROW(generate_drive_cycle({}, VehicleParams{}, 0.1, 1),
               std::invalid_argument);
  EXPECT_THROW(
      generate_drive_cycle(default_porter_cycle(), VehicleParams{}, 0.0, 1),
      std::invalid_argument);
}

TEST(DriveCycle, SegmentKindNames) {
  const std::vector<std::pair<DriveSegment::Kind, std::string>> expected = {
      {DriveSegment::Kind::kIdle, "idle"},
      {DriveSegment::Kind::kUrban, "urban"},
      {DriveSegment::Kind::kCruise, "cruise"},
      {DriveSegment::Kind::kHill, "hill"},
      {DriveSegment::Kind::kStopStart, "stop_start"},
      {DriveSegment::Kind::kColdStart, "cold_start"},
      {DriveSegment::Kind::kSteadyProcess, "steady_process"},
      {DriveSegment::Kind::kLoadRamp, "load_ramp"},
      {DriveSegment::Kind::kBatchCycle, "batch_cycle"}};
  const auto& names = segment_kind_names();
  ASSERT_EQ(names.size(), expected.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(names[i].first, expected[i].first);
    EXPECT_EQ(names[i].second, expected[i].second);
  }
}

// Segment durations come from spec files and sweeps.  A negative, NaN or
// infinite duration, or one too long to count in steps, must throw before
// any step is generated: none of them may hang or reach llround out of
// range.
TEST(DriveCycle, BadSegmentDurationsThrow) {
  // 1e12 s is finite and llround can count it, but 1e13 steps could never
  // be held in memory: it must fail up front, not grow vectors until then.
  for (const double bad : {-30.0, -1e-9, 1e12, 1e300,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<DriveSegment> segments = default_porter_cycle();
    segments.back().duration_s = bad;
    EXPECT_THROW(generate_drive_cycle(segments, VehicleParams{}, 0.1, 1),
                 std::invalid_argument)
        << bad;
  }
  // Each segment under the cap, their sum over it.
  std::vector<DriveSegment> long_laps = default_porter_cycle();
  for (DriveSegment& seg : long_laps) {
    seg.duration_s = 0.6 * static_cast<double>(kMaxDriveCycleSteps) * 0.1;
  }
  EXPECT_THROW(generate_drive_cycle(long_laps, VehicleParams{}, 0.1, 1),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(
      generate_drive_cycle(default_porter_cycle(), VehicleParams{}, nan, 1),
      std::invalid_argument);
  std::vector<DriveSegment> zero = default_porter_cycle();
  zero.front().duration_s = 0.0;
  EXPECT_NO_THROW(generate_drive_cycle(zero, VehicleParams{}, 0.1, 1));
}

TEST(StopStart, DwellsAreEngineOffWithZeroPower) {
  std::vector<DriveSegment> segments{
      {DriveSegment::Kind::kStopStart, 330.0, 40.0, 0.0}};
  const DriveCycle cycle = generate_drive_cycle(segments, VehicleParams{}, 0.1, 6);
  ASSERT_EQ(cycle.engine_on.size(), cycle.num_steps());
  std::size_t off_steps = 0;
  for (std::size_t k = 0; k < cycle.num_steps(); ++k) {
    if (!cycle.engine_on_at(k)) {
      ++off_steps;
      // Idle-stop means combustion off: power exactly zero, vehicle at rest.
      EXPECT_DOUBLE_EQ(cycle.engine_power_kw[k], 0.0);
      EXPECT_LT(cycle.speed_kmh[k], 0.5);
    } else {
      // A running engine always burns at least the accessory load.
      EXPECT_GT(cycle.engine_power_kw[k], 0.0);
    }
  }
  // Six signal cycles of ~36% dwell each: a substantial off share, but the
  // launches dominate.
  EXPECT_GT(off_steps, cycle.num_steps() / 6);
  EXPECT_LT(off_steps, cycle.num_steps() / 2);
}

TEST(StopStart, LegacyKindsNeverSwitchOff) {
  const DriveCycle cycle =
      generate_drive_cycle(default_porter_cycle(), VehicleParams{}, 0.1, 7);
  for (std::size_t k = 0; k < cycle.num_steps(); ++k) {
    EXPECT_TRUE(cycle.engine_on_at(k));
  }
  // Hand-built cycles that predate the engine_on field read as always-on.
  DriveCycle bare;
  bare.speed_kmh = {10.0};
  bare.engine_power_kw = {5.0};
  EXPECT_TRUE(bare.engine_on_at(0));
}

TEST(ColdStart, HoldsFastIdleThenDrivesAwayGently) {
  std::vector<DriveSegment> segments{
      {DriveSegment::Kind::kColdStart, 240.0, 40.0, 0.0}};
  const VehicleParams v;
  const DriveCycle cycle = generate_drive_cycle(segments, v, 0.1, 8);
  // Warm-up idle: stationary, but burning more than a warm idle would
  // (fast idle + cold friction surcharge).
  for (std::size_t k = 0; k < 300; ++k) {
    EXPECT_DOUBLE_EQ(cycle.speed_kmh[k], 0.0);
    EXPECT_GT(cycle.engine_power_kw[k], v.idle_power_kw + 1.0);
  }
  // Drive-away reaches the target eventually, under the gentle accel cap.
  EXPECT_NEAR(cycle.speed_kmh[cycle.num_steps() - 1], 40.0, 10.0);
  for (std::size_t k = 1; k < cycle.num_steps(); ++k) {
    EXPECT_LE((cycle.speed_kmh[k] - cycle.speed_kmh[k - 1]) / 0.1, 4.1);
  }
}

TEST(ProcessLoad, SteadyRampAndBatchSchedules) {
  DriveSegment steady{DriveSegment::Kind::kSteadyProcess, 100.0, 0.0, 0.0,
                      220.0};
  EXPECT_DOUBLE_EQ(process_power_kw(steady, 0.0), 220.0);
  EXPECT_DOUBLE_EQ(process_power_kw(steady, 99.0), 220.0);

  DriveSegment ramp{DriveSegment::Kind::kLoadRamp, 100.0, 0.0, 0.0, 100.0,
                    300.0};
  EXPECT_DOUBLE_EQ(process_power_kw(ramp, 0.0), 100.0);
  EXPECT_DOUBLE_EQ(process_power_kw(ramp, 50.0), 200.0);
  EXPECT_DOUBLE_EQ(process_power_kw(ramp, 100.0), 300.0);

  DriveSegment batch{DriveSegment::Kind::kBatchCycle, 400.0, 0.0, 0.0, 280.0,
                     40.0, 200.0};
  EXPECT_DOUBLE_EQ(process_power_kw(batch, 10.0), 280.0);   // high fire
  EXPECT_DOUBLE_EQ(process_power_kw(batch, 150.0), 40.0);   // low fire
  EXPECT_DOUBLE_EQ(process_power_kw(batch, 210.0), 280.0);  // next batch
  // The modulation ramp between levels is finite, not a step.
  const double mid = process_power_kw(batch, 0.55 * 200.0 + 5.0);
  EXPECT_GT(mid, 40.0);
  EXPECT_LT(mid, 280.0);

  EXPECT_THROW(process_power_kw({DriveSegment::Kind::kUrban, 10.0, 30.0, 0.0},
                                0.0),
               std::invalid_argument);
}

TEST(ProcessLoad, GeneratedCycleIsStationaryAndTracksTheSchedule) {
  std::vector<DriveSegment> segments{
      {DriveSegment::Kind::kLoadRamp, 60.0, 0.0, 0.0, 100.0, 200.0},
      {DriveSegment::Kind::kBatchCycle, 120.0, 0.0, 0.0, 250.0, 50.0, 60.0}};
  VehicleParams plant;
  plant.idle_power_kw = 10.0;
  plant.max_engine_power_kw = 400.0;
  const DriveCycle cycle = generate_drive_cycle(segments, plant, 0.1, 9);
  for (std::size_t k = 0; k < cycle.num_steps(); ++k) {
    EXPECT_DOUBLE_EQ(cycle.speed_kmh[k], 0.0);
    EXPECT_TRUE(cycle.engine_on_at(k));
  }
  // Power tracks firing + auxiliaries to within the ~1% combustion ripple.
  EXPECT_NEAR(cycle.engine_power_kw[100], 100.0 + 100.0 / 6.0 + 10.0, 15.0);
  EXPECT_NEAR(cycle.engine_power_kw[650], 250.0 + 10.0, 15.0);   // high fire
  EXPECT_NEAR(cycle.engine_power_kw[1050], 50.0 + 10.0, 10.0);   // low fire
  EXPECT_TRUE(is_process_kind(DriveSegment::Kind::kBatchCycle));
  EXPECT_FALSE(is_process_kind(DriveSegment::Kind::kStopStart));
}

TEST(ProcessLoad, ClampedToRatedCapacity) {
  std::vector<DriveSegment> segments{
      {DriveSegment::Kind::kSteadyProcess, 10.0, 0.0, 0.0, 900.0}};
  VehicleParams plant;
  plant.max_engine_power_kw = 350.0;
  const DriveCycle cycle = generate_drive_cycle(segments, plant, 0.1, 10);
  for (double p : cycle.engine_power_kw) EXPECT_LE(p, 350.0);
}

}  // namespace
}  // namespace tegrec::thermal
