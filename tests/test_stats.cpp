#include "util/stats.hpp"

#include <cmath>
#include <gtest/gtest.h>

namespace tegrec::util {
namespace {

TEST(Stats, Mean) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
}

TEST(Stats, EmptyVectorEdgeCases) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_THROW(min_value({}), std::invalid_argument);
  EXPECT_THROW(max_value({}), std::invalid_argument);
}

TEST(Stats, MinMax) {
  const std::vector<double> v{3.0, -1.0, 2.0};
  EXPECT_DOUBLE_EQ(min_value(v), -1.0);
  EXPECT_DOUBLE_EQ(max_value(v), 3.0);
}

TEST(Mape, MatchesEquation3) {
  // M = 100/n * sum |(A-F)/A|: two samples at 10% and 20% error -> 15%.
  const std::vector<double> actual{100.0, 50.0};
  const std::vector<double> forecast{90.0, 60.0};
  EXPECT_NEAR(mape_percent(actual, forecast), 15.0, 1e-12);
}

TEST(Mape, PerfectForecastIsZero) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mape_percent(v, v), 0.0);
}

TEST(Mape, SkipsNearZeroActuals) {
  EXPECT_DOUBLE_EQ(mape_percent({0.0, 100.0}, {5.0, 110.0}), 10.0);
}

TEST(Mape, AllZeroActualsGiveZero) {
  EXPECT_DOUBLE_EQ(mape_percent({0.0, 0.0}, {1.0, 2.0}), 0.0);
}

TEST(Mape, SizeMismatchThrows) {
  EXPECT_THROW(mape_percent({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(RunningStats, MatchesBatchStatistics) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats rs;
  for (double x : v) rs.add(x);
  EXPECT_EQ(rs.count(), v.size());
  EXPECT_NEAR(rs.mean(), mean(v), 1e-12);
  EXPECT_NEAR(rs.stddev(), std::sqrt(32.0 / 7.0), 1e-12);  // n-1 denominator
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats rs;
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  rs.add(3.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 3.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.min(), 3.0);
  EXPECT_DOUBLE_EQ(rs.max(), 3.0);
}

// MAPE is scale-invariant: scaling both series leaves it unchanged.
class MapeScaleInvariance : public ::testing::TestWithParam<double> {};

TEST_P(MapeScaleInvariance, ScaleInvariant) {
  const double scale = GetParam();
  const std::vector<double> actual{80.0, 90.0, 100.0, 85.0};
  const std::vector<double> forecast{82.0, 88.0, 101.0, 84.0};
  std::vector<double> sa = actual, sf = forecast;
  for (double& x : sa) x *= scale;
  for (double& x : sf) x *= scale;
  EXPECT_NEAR(mape_percent(sa, sf), mape_percent(actual, forecast), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Scales, MapeScaleInvariance,
                         ::testing::Values(0.01, 0.5, 2.0, 1000.0));

}  // namespace
}  // namespace tegrec::util
