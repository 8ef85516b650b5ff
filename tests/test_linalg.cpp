#include "util/linalg.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "least_squares_oracle.hpp"
#include "util/rng.hpp"

namespace tegrec::util {
namespace {

using oracle::least_squares;
using oracle::qr_least_squares;

Matrix matrix_of(std::size_t rows, std::size_t cols,
                 const std::vector<double>& values) {
  Matrix m(rows, cols);
  m.data() = values;
  return m;
}

TEST(Matrix, ConstructsWithFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
}

TEST(Matrix, IndexOutOfRangeThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m(2, 0), std::out_of_range);
  EXPECT_THROW(m(0, 2), std::out_of_range);
}

TEST(CholeskySolve, SolvesSpdSystem) {
  const Matrix a = matrix_of(2, 2, {4.0, 1.0, 1.0, 3.0});
  const std::vector<double> x = cholesky_solve(a, {1.0, 2.0});
  // Verify A x = b.
  EXPECT_NEAR(4.0 * x[0] + 1.0 * x[1], 1.0, 1e-12);
  EXPECT_NEAR(1.0 * x[0] + 3.0 * x[1], 2.0, 1e-12);
}

TEST(CholeskySolve, RecoversFromSemidefiniteWithJitter) {
  // Rank-1 matrix plus consistent RHS: strict Cholesky fails, the jitter
  // retry must still return something close to a solution.
  const Matrix a = matrix_of(2, 2, {1.0, 1.0, 1.0, 1.0});
  const std::vector<double> x = cholesky_solve(a, {2.0, 2.0});
  EXPECT_NEAR(x[0] + x[1], 2.0, 1e-4);
}

TEST(LeastSquares, ExactFitLine) {
  // y = 3 + 2 t sampled without noise: recover intercept and slope.
  Matrix x(5, 2);
  std::vector<double> y(5);
  for (std::size_t i = 0; i < 5; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = static_cast<double>(i);
    y[i] = 3.0 + 2.0 * static_cast<double>(i);
  }
  const std::vector<double> beta = least_squares(x, y);
  // The default ridge term biases coefficients by O(1e-8); allow for it.
  EXPECT_NEAR(beta[0], 3.0, 1e-6);
  EXPECT_NEAR(beta[1], 2.0, 1e-6);
}

TEST(LeastSquares, MatchesQrOnRandomProblems) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = 12, n = 4;
    Matrix a(m, n);
    std::vector<double> b(m);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-2.0, 2.0);
      b[r] = rng.uniform(-1.0, 1.0);
    }
    const auto x1 = least_squares(a, b);
    const auto x2 = qr_least_squares(a, b);
    for (std::size_t c = 0; c < n; ++c) EXPECT_NEAR(x1[c], x2[c], 1e-6);
  }
}

TEST(QrLeastSquares, UnderdeterminedThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(qr_least_squares(a, {1.0, 2.0}), std::invalid_argument);
}

// Property sweep: the normal-equation solver must keep residuals orthogonal
// to the column space for a range of problem shapes.
class LeastSquaresProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LeastSquaresProperty, ResidualOrthogonalToColumns) {
  const std::size_t n = GetParam();
  const std::size_t m = 3 * n + 2;
  Rng rng(1000 + n);
  Matrix a(m, n);
  std::vector<double> b(m);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.gaussian(0.0, 1.0);
    b[r] = rng.gaussian(0.0, 1.0);
  }
  const auto x = least_squares(a, b);
  const auto ax = oracle::multiply(a, x);
  for (std::size_t c = 0; c < n; ++c) {
    double corr = 0.0;
    for (std::size_t r = 0; r < m; ++r) corr += a(r, c) * (b[r] - ax[r]);
    EXPECT_NEAR(corr, 0.0, 1e-6) << "column " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, LeastSquaresProperty,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace tegrec::util
