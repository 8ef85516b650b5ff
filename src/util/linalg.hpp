// Dense linear algebra primitives used by the prediction subsystem.
//
// The library implements only what the predictors need: a dense row-major
// matrix and a Cholesky solver for the normal equations.  Everything is
// double precision; problem sizes are tiny (feature counts below ten), so
// cache blocking is unnecessary.  The design-matrix least-squares and
// Householder QR references the tests compare against live in
// tests/least_squares_oracle.hpp.
#pragma once

#include <cstddef>
#include <vector>

namespace tegrec::util {

/// Dense row-major matrix of doubles.
///
/// Invariants: rows()*cols() == data().size().  Elements are stored
/// contiguously row by row.  All operations check dimensions and throw
/// std::invalid_argument on mismatch.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Frobenius norm.
  double frobenius_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves the symmetric positive definite system A x = b via Cholesky
/// factorisation.  Throws std::runtime_error if A is not SPD (within a
/// small numeric tolerance handled by a diagonal jitter retry).
std::vector<double> cholesky_solve(const Matrix& a, const std::vector<double>& b);

/// Solves the ridge-regularised normal equations (A^T A + lambda I) x =
/// A^T b for callers that accumulate A^T A and A^T b themselves: adds
/// ridge * (1 + ||A^T A||_F) to the diagonal and solves by cholesky_solve.
std::vector<double> solve_normal_equations(Matrix ata,
                                           const std::vector<double>& atb,
                                           double ridge);

}  // namespace tegrec::util
