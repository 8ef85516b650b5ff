#include "util/rng.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <random>

#include "util/stats.hpp"

namespace tegrec::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 5.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int x = rng.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= (x == 0);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  RunningStats rs;
  for (int i = 0; i < 20000; ++i) rs.add(rng.gaussian(3.0, 2.0));
  EXPECT_NEAR(rs.mean(), 3.0, 0.08);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.08);
}

TEST(Rng, GaussianMatchesStdNormalDistributionBitForBit) {
  // gaussian scales a unit draw; the stream must equal a fresh
  // std::normal_distribution(mean, sd) per call on the same engine.
  Rng rng(29);
  std::mt19937_64 twin(29);
  Rng params(31);
  for (int i = 0; i < 5000; ++i) {
    const double mean = params.uniform(-50.0, 50.0);
    const double sd = params.uniform(1e-6, 10.0);
    std::normal_distribution<double> reference(mean, sd);
    const double expected = reference(twin);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.gaussian(mean, sd)),
              std::bit_cast<std::uint64_t>(expected))
        << "draw " << i;
  }
}

TEST(Rng, GaussianZeroStddevReturnsMeanAndAdvancesLikeUnitDraw) {
  Rng a(37), b(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.gaussian(4.25, 0.0), 4.25);
    (void)b.gaussian(0.0, 1.0);
    EXPECT_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0)) << "draw " << i;
  }
}

TEST(Rng, GaussianRejectsNegativeOrNonFiniteStddev) {
  Rng rng(41);
  EXPECT_THROW(rng.gaussian(0.0, -1.0), std::invalid_argument);
  EXPECT_THROW(rng.gaussian(0.0, -1e-300), std::invalid_argument);
  EXPECT_THROW(rng.gaussian(0.0, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(rng.gaussian(0.0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(OuStep, MeanReverts) {
  // With zero diffusion the OU step is a pure pull toward the mean.
  Rng rng(19);
  double x = 10.0;
  for (int i = 0; i < 100; ++i) x = rng.ou_step(x, 0.0, 0.5, 0.0, 0.1);
  // Euler decay: 10 * (1 - 0.05)^100 ~= 0.059.
  EXPECT_NEAR(x, 10.0 * std::pow(0.95, 100), 1e-9);
  for (int i = 0; i < 400; ++i) x = rng.ou_step(x, 0.0, 0.5, 0.0, 0.1);
  EXPECT_NEAR(x, 0.0, 1e-4);
}

TEST(OuStep, StationaryVarianceApproximation) {
  // Long OU run: stationary sigma^2 = sigma_diff^2 / (2 * reversion).
  Rng rng(23);
  const double reversion = 1.0, sigma = 0.5, dt = 0.01;
  double x = 0.0;
  RunningStats rs;
  for (int i = 0; i < 200000; ++i) {
    x = rng.ou_step(x, 0.0, reversion, sigma, dt);
    if (i > 1000) rs.add(x);
  }
  const double expected_sd = sigma / std::sqrt(2.0 * reversion);
  EXPECT_NEAR(rs.stddev(), expected_sd, 0.05);
  EXPECT_NEAR(rs.mean(), 0.0, 0.05);
}

}  // namespace
}  // namespace tegrec::util
