#include "predict/mlr.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <stdexcept>
#include <string>

#include "mlr_oracle.hpp"
#include "util/rng.hpp"

namespace tegrec::predict {
namespace {

// Fills a history with a deterministic AR(2) process per module.
TemperatureHistory ar2_history(std::size_t modules, std::size_t steps,
                               double a1, double a2, double c) {
  TemperatureHistory h(modules, steps);
  std::vector<double> prev(modules), prev2(modules);
  for (std::size_t m = 0; m < modules; ++m) {
    prev[m] = 80.0 + static_cast<double>(m);
    prev2[m] = 79.0 + static_cast<double>(m);
  }
  h.push(prev2);
  h.push(prev);
  for (std::size_t t = 2; t < steps; ++t) {
    std::vector<double> next(modules);
    for (std::size_t m = 0; m < modules; ++m) {
      next[m] = c + a1 * prev[m] + a2 * prev2[m];
    }
    h.push(next);
    prev2 = prev;
    prev = next;
  }
  return h;
}

TEST(Mlr, RecoversExactArProcess) {
  // Data generated by T_{t+1} = 2 + 1.2 T_t - 0.25 T_{t-1}: a lags>=2 MLR
  // must recover the coefficients and predict exactly.
  MlrPredictor mlr(MlrParams{.lags = 2, .ridge = 0.0});
  const TemperatureHistory h = ar2_history(4, 20, 1.2, -0.25, 2.0);
  mlr.fit(h);
  ASSERT_TRUE(mlr.is_fitted());
  const auto& beta = mlr.coefficients();
  ASSERT_EQ(beta.size(), 3u);
  EXPECT_NEAR(beta[0], 2.0, 1e-5);
  EXPECT_NEAR(beta[1], 1.2, 1e-7);
  EXPECT_NEAR(beta[2], -0.25, 1e-7);

  const auto pred = mlr.predict_next(h);
  for (std::size_t m = 0; m < 4; ++m) {
    const double expected =
        2.0 + 1.2 * h.latest()[m] - 0.25 * h.row(h.size() - 2)[m];
    EXPECT_NEAR(pred[m], expected, 1e-6);
  }
}

TEST(Mlr, PredictsConstantSignalExactly) {
  MlrPredictor mlr;
  TemperatureHistory h(3, 20);
  for (int t = 0; t < 20; ++t) h.push({90.0, 85.0, 80.0});
  mlr.fit(h);
  const auto pred = mlr.predict_next(h);
  EXPECT_NEAR(pred[0], 90.0, 1e-3);
  EXPECT_NEAR(pred[1], 85.0, 1e-3);
  EXPECT_NEAR(pred[2], 80.0, 1e-3);
}

TEST(Mlr, TracksLinearTrend) {
  MlrPredictor mlr(MlrParams{.lags = 3, .ridge = 1e-10});
  TemperatureHistory h(2, 30);
  for (int t = 0; t < 30; ++t) {
    h.push({80.0 + 0.1 * t, 60.0 + 0.1 * t});
  }
  mlr.fit(h);
  const auto pred = mlr.predict_next(h);
  EXPECT_NEAR(pred[0], 80.0 + 0.1 * 30, 0.02);
  EXPECT_NEAR(pred[1], 60.0 + 0.1 * 30, 0.02);
}

TEST(Mlr, HorizonRollsForward) {
  MlrPredictor mlr(MlrParams{.lags = 2, .ridge = 0.0});
  const TemperatureHistory h = ar2_history(2, 25, 1.1, -0.15, 1.0);
  mlr.fit(h);
  const auto rows = mlr.predict_horizon(h, 3);
  ASSERT_EQ(rows.size(), 3u);
  // Roll the true process forward and compare.
  double t0 = h.latest()[0];
  double t1 = h.row(h.size() - 2)[0];
  for (std::size_t k = 0; k < 3; ++k) {
    const double next = 1.0 + 1.1 * t0 - 0.15 * t1;
    EXPECT_NEAR(rows[k][0], next, 1e-4) << "horizon step " << k;
    t1 = t0;
    t0 = next;
  }
}

TEST(Mlr, NoisyArStillCloselyPredicted) {
  util::Rng rng(5);
  MlrPredictor mlr(MlrParams{.lags = 4});
  TemperatureHistory h(10, 60);
  std::vector<double> x(10, 85.0);
  for (int t = 0; t < 60; ++t) {
    for (auto& v : x) v = 0.98 * v + 1.7 + rng.gaussian(0.0, 0.05);
    h.push(x);
  }
  mlr.fit(h);
  const auto pred = mlr.predict_next(h);
  for (std::size_t m = 0; m < 10; ++m) {
    const double expected = 0.98 * h.latest()[m] + 1.7;
    EXPECT_NEAR(pred[m], expected, 0.35);
  }
}

TEST(Mlr, ErrorsOnMisuse) {
  MlrPredictor mlr(MlrParams{.lags = 4});
  TemperatureHistory h(2, 10);
  h.push({1.0, 2.0});
  EXPECT_THROW(mlr.fit(h), std::invalid_argument);       // too short
  EXPECT_THROW(mlr.predict_next(h), std::logic_error);   // unfitted
  EXPECT_THROW(MlrPredictor(MlrParams{.lags = 0}), std::invalid_argument);
}

TEST(Mlr, PredictWithShortHistoryThrows) {
  MlrPredictor mlr(MlrParams{.lags = 3});
  TemperatureHistory h(1, 10);
  for (int t = 0; t < 5; ++t) h.push({50.0 + t});
  mlr.fit(h);
  TemperatureHistory short_h(1, 10);
  short_h.push({50.0});
  EXPECT_THROW(mlr.predict_next(short_h), std::invalid_argument);
}

TEST(Mlr, NameAndLags) {
  MlrPredictor mlr(MlrParams{.lags = 6});
  EXPECT_EQ(mlr.name(), "MLR");
  EXPECT_EQ(mlr.num_lags(), 6u);
}

TEST(PredictorBase, HorizonZeroThrows) {
  MlrPredictor mlr;
  const TemperatureHistory h = ar2_history(2, 25, 1.0, 0.0, 0.0);
  mlr.fit(h);
  EXPECT_THROW(mlr.predict_horizon(h, 0), std::invalid_argument);
}

// ---- fused normal equations == the design-matrix oracle, bit for bit

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << "[" << i << "]: " << got[i] << " vs " << want[i];
  }
}

void expect_fit_matches_oracle(const TemperatureHistory& h, std::size_t lags,
                               double ridge) {
  SCOPED_TRACE("lags " + std::to_string(lags) + ", ridge " +
               std::to_string(ridge));
  MlrPredictor mlr(MlrParams{.lags = lags, .ridge = ridge});
  mlr.fit(h);
  const std::vector<double> want = oracle::mlr_design_fit(h, lags, ridge);
  expect_same_bits(mlr.coefficients(), want, "beta");
  expect_same_bits(mlr.predict_next(h),
                   oracle::mlr_lag_window_predict(h, want), "forecast");
}

// Thermal-like rows with noise; every `zero_every`-th cell (if non-zero)
// is an exact 0.0 or -0.0, exercising X^T X's exact-zero skip.
TemperatureHistory random_history(util::Rng& rng, std::size_t modules,
                                  std::size_t steps, std::size_t zero_every) {
  TemperatureHistory h(modules, steps);
  std::size_t cell = 0;
  for (std::size_t t = 0; t < steps; ++t) {
    std::vector<double> row(modules);
    for (std::size_t m = 0; m < modules; ++m, ++cell) {
      row[m] = 60.0 + 25.0 * std::sin(0.07 * static_cast<double>(t) +
                                      0.3 * static_cast<double>(m)) +
               rng.gaussian(0.0, 0.8);
      if (zero_every != 0 && cell % zero_every == 0) {
        row[m] = cell % (2 * zero_every) == 0 ? 0.0 : -0.0;
      }
    }
    h.push(row);
  }
  return h;
}

TEST(MlrFusedFit, MatchesDesignMatrixBitsAcrossLags) {
  util::Rng rng(2018);
  for (std::size_t lags : {1u, 2u, 4u, 8u}) {
    for (std::size_t modules : {1u, 7u, 64u}) {
      const TemperatureHistory h = random_history(rng, modules, 30, 0);
      expect_fit_matches_oracle(h, lags, 1e-8);
      expect_fit_matches_oracle(h, lags, 0.0);
    }
  }
}

TEST(MlrFusedFit, MatchesDesignMatrixBitsWithExactZeroTemperatures) {
  util::Rng rng(7);
  for (std::size_t lags : {1u, 2u, 4u, 8u}) {
    for (std::size_t zero_every : {3u, 11u}) {
      const TemperatureHistory h = random_history(rng, 9, 30, zero_every);
      expect_fit_matches_oracle(h, lags, 1e-8);
    }
  }
}

TEST(MlrFusedFit, MatchesDesignMatrixBitsThroughTheJitterRetry) {
  // A window that never changes: every lag column equals the constant.
  // At 0 C the lag columns are all exactly zero, so X^T X has zero pivots
  // and only cholesky_solve's jittered retry can factor it; at 80 C the
  // columns are collinear with the intercept.  Both must still agree.
  for (double level : {0.0, 80.0}) {
    TemperatureHistory h(12, 30);
    for (int t = 0; t < 30; ++t) h.push(std::vector<double>(12, level));
    for (std::size_t lags : {1u, 2u, 4u, 8u}) {
      expect_fit_matches_oracle(h, lags, 0.0);
      expect_fit_matches_oracle(h, lags, 1e-8);
    }
  }
}

// ---- the fixed-lag kernel, every instantiated lag count, special values

// A thermal-like history with special values planted so that some design
// row holds an exact zero next to a non-finite lag (where the oracle's
// exact-zero skip and a plain 0 * x differ) and some squares overflow.
TemperatureHistory special_history(util::Rng& rng, int pattern) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  TemperatureHistory h = random_history(rng, 6, 30, 0);
  std::vector<std::vector<double>> rows;
  for (std::size_t t = 0; t < h.size(); ++t) rows.push_back(h.row(t));
  switch (pattern) {
    case 0:  // a zero lag beside an infinite one, in one module
      rows[10][0] = 0.0;
      rows[12][0] = kInf;
      rows[20][3] = -0.0;
      rows[21][3] = -kInf;
      break;
    case 1:  // NaN beside -0
      rows[8][1] = -0.0;
      rows[9][1] = kNan;
      break;
    case 2:  // squares that overflow, with a zero nearby
      rows[14][2] = 1e200;
      rows[15][2] = 0.0;
      rows[16][4] = -1e160;
      break;
    default:  // a non-finite target only (the newest row)
      rows.back()[5] = kInf;
      break;
  }
  TemperatureHistory out(h.num_modules(), h.capacity());
  for (const std::vector<double>& row : rows) out.push(row);
  return out;
}

TEST(MlrFusedFit, EveryLagCountMatchesTheOracleThroughSpecialValues) {
  // Finite rows take the mirrored upper-triangle pass; patterns 0-2 make a
  // diagonal sum non-finite and force the full pass, while a non-finite
  // target alone (pattern 3) does not, as X^T y is the same in both
  // passes.  Either way beta (or the exception) must be the oracle's.
  util::Rng rng(88);
  for (std::size_t lags = 1; lags <= 8; ++lags) {
    SCOPED_TRACE("lags " + std::to_string(lags));
    const TemperatureHistory finite = random_history(rng, 7, 30, 5);
    expect_fit_matches_oracle(finite, lags, 1e-8);
    for (int pattern = 0; pattern < 4; ++pattern) {
      SCOPED_TRACE("pattern " + std::to_string(pattern));
      const TemperatureHistory h = special_history(rng, pattern);
      MlrPredictor mlr(MlrParams{.lags = lags});
      std::vector<double> want;
      try {
        want = oracle::mlr_design_fit(h, lags, MlrParams{}.ridge);
      } catch (const std::runtime_error&) {
        EXPECT_THROW(mlr.fit(h), std::runtime_error);
        continue;
      }
      mlr.fit(h);
      expect_same_bits(mlr.coefficients(), want, "beta");
    }
  }
}

TEST(Mlr, RejectsMoreLagsThanTheKernelInstantiates) {
  EXPECT_NO_THROW(MlrPredictor(MlrParams{.lags = 8}));
  EXPECT_THROW(MlrPredictor(MlrParams{.lags = 9}), std::invalid_argument);
}

// MAPE of the 1-step MLR forecast on a smooth thermal-like signal must be
// tiny across lag orders — the paper's "< 0.3%" claim (Fig. 5).
class MlrLagSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MlrLagSweep, SubPercentErrorOnSmoothSignal) {
  const std::size_t lags = GetParam();
  MlrPredictor mlr(MlrParams{.lags = lags});
  TemperatureHistory h(5, 40);
  for (int t = 0; t < 40; ++t) {
    std::vector<double> row(5);
    for (int m = 0; m < 5; ++m) {
      row[m] = 85.0 + 3.0 * std::sin(0.05 * t + m) - 2.0 * m;
    }
    h.push(row);
  }
  mlr.fit(h);
  const auto pred = mlr.predict_next(h);
  std::vector<double> actual(5);
  for (int m = 0; m < 5; ++m) {
    actual[m] = 85.0 + 3.0 * std::sin(0.05 * 40 + m) - 2.0 * m;
  }
  for (int m = 0; m < 5; ++m) {
    EXPECT_NEAR(pred[m], actual[m], 0.01 * std::abs(actual[m])) << "module " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Lags, MlrLagSweep, ::testing::Values(2, 3, 4, 6, 8));

}  // namespace
}  // namespace tegrec::predict
