#include "sim/experiment.hpp"

#include <gtest/gtest.h>

namespace tegrec::sim {
namespace {

thermal::TemperatureTrace short_trace() {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = 16;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 40.0, 30.0, 0.0}};
  config.seed = 13;
  return thermal::generate_trace(config);
}

TEST(Experiment, RunsAllFourSchemesInOrder) {
  const ComparisonResult res = run_standard_comparison(short_trace());
  ASSERT_EQ(res.runs.size(), 4u);
  EXPECT_EQ(res.runs[0].algorithm, "DNOR");
  EXPECT_EQ(res.runs[1].algorithm, "INOR");
  EXPECT_EQ(res.runs[2].algorithm, "EHTR");
  EXPECT_EQ(res.runs[3].algorithm, "Baseline");
}

TEST(Experiment, ByNameLookup) {
  const ComparisonResult res = run_standard_comparison(short_trace());
  EXPECT_EQ(res.by_name("EHTR").algorithm, "EHTR");
  EXPECT_THROW(res.by_name("nope"), std::out_of_range);
}

TEST(Experiment, HeadlineMetricsPositive) {
  const ComparisonResult res = run_standard_comparison(short_trace());
  EXPECT_GT(res.dnor_gain_over_baseline(), 0.0);
  EXPECT_GT(res.overhead_reduction_ratio(), 1.0);
}

TEST(Experiment, SubsetSelection) {
  ComparisonOptions options;
  options.include_ehtr = false;  // the expensive one
  options.include_dnor = false;
  const ComparisonResult res = run_standard_comparison(short_trace(), options);
  ASSERT_EQ(res.runs.size(), 2u);
  EXPECT_EQ(res.runs[0].algorithm, "INOR");
  EXPECT_EQ(res.runs[1].algorithm, "Baseline");
  EXPECT_THROW(res.by_name("DNOR"), std::out_of_range);
}

TEST(Experiment, NoSchemesThrows) {
  ComparisonOptions options;
  options.include_dnor = false;
  options.include_inor = false;
  options.include_ehtr = false;
  options.include_baseline = false;
  EXPECT_THROW(run_standard_comparison(short_trace(), options),
               std::invalid_argument);
}

TEST(Experiment, ControlPeriodPropagates) {
  ComparisonOptions slow;
  slow.include_dnor = false;
  slow.include_ehtr = false;
  slow.include_baseline = false;
  slow.control_period_s = 2.0;
  const auto trace = short_trace();
  const ComparisonResult res = run_standard_comparison(trace, slow);
  // 40 s at a 2 s period: ~20 invocations instead of 80.
  EXPECT_NEAR(static_cast<double>(res.runs[0].num_invocations),
              trace.duration_s() / 2.0, 2.0);
}

TEST(Experiment, SimOptionsRespected) {
  ComparisonOptions no_overhead;
  no_overhead.sim.charge_overhead = false;
  no_overhead.include_ehtr = false;
  const ComparisonResult res =
      run_standard_comparison(short_trace(), no_overhead);
  for (const auto& r : res.runs) {
    EXPECT_DOUBLE_EQ(r.switch_overhead_j, 0.0) << r.algorithm;
  }
}

}  // namespace
}  // namespace tegrec::sim
