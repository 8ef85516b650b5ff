#include "thermal/trace.hpp"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>

#include "sim/telemetry.hpp"

namespace tegrec::thermal {
namespace {

TemperatureTrace tiny_trace() {
  TemperatureTrace trace(0.5, 3);
  trace.append({50.0, 40.0, 30.0}, 25.0);
  trace.append({51.0, 41.0, 31.0}, 25.0);
  trace.append({52.0, 42.0, 32.0}, 26.0);
  return trace;
}

TEST(TemperatureTrace, AppendAndAccess) {
  const TemperatureTrace trace = tiny_trace();
  EXPECT_EQ(trace.num_steps(), 3u);
  EXPECT_EQ(trace.num_modules(), 3u);
  EXPECT_DOUBLE_EQ(trace.temperature_c(1, 2), 31.0);
  EXPECT_DOUBLE_EQ(trace.ambient_c(2), 26.0);
  EXPECT_DOUBLE_EQ(trace.duration_s(), 1.5);
}

TEST(TemperatureTrace, StepTemperaturesAndDeltaT) {
  const TemperatureTrace trace = tiny_trace();
  EXPECT_EQ(trace.step_temperatures(0), (std::vector<double>{50.0, 40.0, 30.0}));
  EXPECT_EQ(trace.step_delta_t(2), (std::vector<double>{26.0, 16.0, 6.0}));
}

TEST(TemperatureTrace, DeltaTClampedAtZero) {
  TemperatureTrace trace(1.0, 2);
  trace.append({24.0, 30.0}, 25.0);  // first module below ambient
  const auto dt = trace.step_delta_t(0);
  EXPECT_DOUBLE_EQ(dt[0], 0.0);
  EXPECT_DOUBLE_EQ(dt[1], 5.0);
}

TEST(TemperatureTrace, StepAtTime) {
  const TemperatureTrace trace = tiny_trace();
  EXPECT_EQ(trace.step_at_time(-1.0), 0u);
  EXPECT_EQ(trace.step_at_time(0.0), 0u);
  EXPECT_EQ(trace.step_at_time(0.6), 1u);
  EXPECT_EQ(trace.step_at_time(100.0), 2u);  // clamped
}

TEST(TemperatureTrace, Slice) {
  const TemperatureTrace trace = tiny_trace();
  const TemperatureTrace mid = trace.slice(0.5, 1.0);
  EXPECT_EQ(mid.num_steps(), 1u);
  EXPECT_DOUBLE_EQ(mid.temperature_c(0, 0), 51.0);
  EXPECT_THROW(trace.slice(1.0, 0.5), std::invalid_argument);
}

TEST(TemperatureTrace, WrongWidthAppendThrows) {
  TemperatureTrace trace(1.0, 2);
  EXPECT_THROW(trace.append({1.0}, 25.0), std::invalid_argument);
}

TEST(TemperatureTrace, InvalidConstructionThrows) {
  EXPECT_THROW(TemperatureTrace(0.0, 3), std::invalid_argument);
  EXPECT_THROW(TemperatureTrace(1.0, 0), std::invalid_argument);
}

TEST(TemperatureTrace, OutOfRangeAccessThrows) {
  const TemperatureTrace trace = tiny_trace();
  EXPECT_THROW(trace.temperature_c(3, 0), std::out_of_range);
  EXPECT_THROW(trace.temperature_c(0, 3), std::out_of_range);
  EXPECT_THROW(trace.ambient_c(3), std::out_of_range);
}

TEST(TemperatureTrace, CsvRoundTrip) {
  const std::string path = ::testing::TempDir() + "/tegrec_trace_test.csv";
  const TemperatureTrace trace = tiny_trace();
  trace.save_csv(path);
  const TemperatureTrace back = sim::load_trace_csv(path);
  ASSERT_EQ(back.num_steps(), trace.num_steps());
  ASSERT_EQ(back.num_modules(), trace.num_modules());
  EXPECT_NEAR(back.dt_s(), trace.dt_s(), 1e-9);
  for (std::size_t t = 0; t < trace.num_steps(); ++t) {
    EXPECT_NEAR(back.ambient_c(t), trace.ambient_c(t), 1e-9);
    for (std::size_t m = 0; m < trace.num_modules(); ++m) {
      EXPECT_NEAR(back.temperature_c(t, m), trace.temperature_c(t, m), 1e-9);
    }
  }
  std::remove(path.c_str());
}

namespace {
std::string write_temp_csv(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream f(path);
  f << text;
  return path;
}
}  // namespace

TEST(TemperatureTraceLoadCsv, SingleRowWithoutDtThrows) {
  // A single-row file has no time base; the old loader silently assumed
  // dt = 1.0 and imported a wrong one.
  const std::string path = write_temp_csv(
      "tegrec_single_row.csv", "time_s,ambient_c,t0,t1\n0,25,50,40\n");
  EXPECT_THROW(sim::load_trace_csv(path), std::runtime_error);
  // An explicit dt resolves it.
  const TemperatureTrace trace = sim::load_trace_csv(path, 0.25);
  EXPECT_EQ(trace.num_steps(), 1u);
  EXPECT_DOUBLE_EQ(trace.dt_s(), 0.25);
  EXPECT_DOUBLE_EQ(trace.temperature_c(0, 1), 40.0);
  std::remove(path.c_str());
}

TEST(TemperatureTraceLoadCsv, EmptyFileThrows) {
  const std::string path =
      write_temp_csv("tegrec_empty_trace.csv", "time_s,ambient_c,t0\n");
  EXPECT_THROW(sim::load_trace_csv(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TemperatureTraceLoadCsv, IrregularTimeBaseThrows) {
  // dt used to be derived from only the first two rows; a later jump in
  // the time column silently stretched the trace.
  const std::string path = write_temp_csv(
      "tegrec_irregular.csv",
      "time_s,ambient_c,t0\n0,25,50\n0.5,25,51\n2.0,25,52\n");
  EXPECT_THROW(sim::load_trace_csv(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TemperatureTraceLoadCsv, ExplicitDtMismatchThrows) {
  // An explicit dt that contradicts the timestamps is an import error,
  // not a silent rebase.
  const std::string path = write_temp_csv(
      "tegrec_dt_mismatch.csv",
      "time_s,ambient_c,t0\n0,25,50\n0.5,25,51\n1.0,25,52\n");
  EXPECT_THROW(sim::load_trace_csv(path, 1.0), std::runtime_error);
  const TemperatureTrace ok = sim::load_trace_csv(path, 0.5);
  EXPECT_EQ(ok.num_steps(), 3u);
  std::remove(path.c_str());
}

TEST(TemperatureTraceLoadCsv, ExplicitDtAcceptsRoundedTimestamps) {
  // Real logs quantise their time column (here: a 30 Hz file rounded to
  // milliseconds).  An explicit dt vouches for the grid, so stamps within
  // half a step of it import; deriving dt from the rounded stamps would
  // (rightly) fail the strict grid check.
  const std::string path = write_temp_csv(
      "tegrec_rounded_30hz.csv",
      "time_s,ambient_c,t0\n0.000,25,50\n0.033,25,51\n0.067,25,52\n"
      "0.100,25,53\n");
  EXPECT_THROW(sim::load_trace_csv(path), std::runtime_error);
  const TemperatureTrace trace = sim::load_trace_csv(path, 1.0 / 30.0);
  EXPECT_EQ(trace.num_steps(), 4u);
  EXPECT_DOUBLE_EQ(trace.dt_s(), 1.0 / 30.0);
  std::remove(path.c_str());
}

TEST(TemperatureTraceLoadCsv, NonZeroStartTimeAccepted) {
  // Sliced/real traces may not start at t = 0; only the spacing matters.
  const std::string path = write_temp_csv(
      "tegrec_offset_start.csv",
      "time_s,ambient_c,t0\n10.0,25,50\n10.5,25,51\n11.0,25,52\n");
  const TemperatureTrace trace = sim::load_trace_csv(path);
  EXPECT_EQ(trace.num_steps(), 3u);
  EXPECT_DOUBLE_EQ(trace.dt_s(), 0.5);
  std::remove(path.c_str());
}

TEST(TemperatureTraceLoadCsv, TruncatedRowRejectedWithLineNumber) {
  // A real log cut off mid-write: the last line still has the right comma
  // count, but its tail cells are empty.  Empty CSV cells parse as NaN (the
  // bench writers' unmeasured-value convention), and the old loader
  // imported them as NaN temperatures without a whisper — poisoning every
  // simulation downstream.  It must throw, naming the offending line.
  const std::string path = write_temp_csv(
      "tegrec_truncated_log.csv",
      "time_s,ambient_c,t0,t1,t2\n"
      "0.0,24.8,81.2,79.9,76.4\n"
      "0.5,24.8,81.3,80.1,76.6\n"
      "1.0,24.9,81.5,,\n");  // writer died after t0
  try {
    sim::load_trace_csv(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("t1"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(TemperatureTraceLoadCsv, ShortRowRejectedWithLineNumber) {
  // Truncation that drops whole cells changes the row width; the CSV layer
  // itself must point at the line.
  const std::string path = write_temp_csv(
      "tegrec_short_row.csv",
      "time_s,ambient_c,t0,t1\n0.0,25,50,40\n0.5,25,51\n");
  try {
    sim::load_trace_csv(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(TemperatureTraceLoadCsv, BlankAmbientCellRejected) {
  const std::string path = write_temp_csv(
      "tegrec_blank_ambient.csv",
      "time_s,ambient_c,t0\n0.0,25,50\n0.5,,51\n");
  EXPECT_THROW(sim::load_trace_csv(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(GenerateTrace, NonIntegralSampleRatioThrows) {
  // 0.25 s samples from a 0.1 s sim step would round to a stride of 2 or
  // 3 — a silently different rate than requested.
  TraceGeneratorConfig config;
  config.sample_dt_s = 0.25;
  config.sim_dt_s = 0.1;
  EXPECT_THROW(generate_trace(config), std::invalid_argument);
}

TEST(GenerateTrace, IntegralSampleRatioAccepted) {
  TraceGeneratorConfig config;
  config.sample_dt_s = 0.2;
  config.sim_dt_s = 0.1;
  config.segments = {{DriveSegment::Kind::kCruise, 5.0, 60.0, 0.0}};
  const TemperatureTrace trace = generate_trace(config);
  EXPECT_GT(trace.num_steps(), 0u);
  EXPECT_DOUBLE_EQ(trace.dt_s(), 0.2);
}

class GeneratedTraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new TemperatureTrace(default_experiment_trace(99));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }
  static TemperatureTrace* trace_;
};

TemperatureTrace* GeneratedTraceTest::trace_ = nullptr;

TEST_F(GeneratedTraceTest, DefaultShape) {
  EXPECT_EQ(trace_->num_modules(), 100u);
  EXPECT_NEAR(trace_->duration_s(), 800.0, 1.0);
  EXPECT_DOUBLE_EQ(trace_->dt_s(), 0.5);
}

TEST_F(GeneratedTraceTest, SpatialProfileDecreasesOnAverage) {
  // Entrance modules must run hotter than exit modules at every step.
  for (std::size_t t = 0; t < trace_->num_steps(); t += 100) {
    const auto temps = trace_->step_temperatures(t);
    EXPECT_GT(temps.front(), temps.back() + 5.0) << "step " << t;
  }
}

TEST_F(GeneratedTraceTest, TemperaturesPhysicallyPlausible) {
  for (std::size_t t = 0; t < trace_->num_steps(); t += 37) {
    const auto temps = trace_->step_temperatures(t);
    for (double temp : temps) {
      EXPECT_GT(temp, 25.0);
      EXPECT_LT(temp, 110.0);
    }
  }
}

TEST_F(GeneratedTraceTest, DeterministicBySeed) {
  const TemperatureTrace again = default_experiment_trace(99);
  EXPECT_DOUBLE_EQ(again.temperature_c(100, 50), trace_->temperature_c(100, 50));
  const TemperatureTrace other = default_experiment_trace(100);
  EXPECT_NE(other.temperature_c(100, 50), trace_->temperature_c(100, 50));
}

TEST(GenerateTrace, SampleCoarserThanSimRequired) {
  TraceGeneratorConfig config;
  config.sample_dt_s = 0.05;
  config.sim_dt_s = 0.1;
  EXPECT_THROW(generate_trace(config), std::invalid_argument);
}

}  // namespace
}  // namespace tegrec::thermal
