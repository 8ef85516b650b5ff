// Dense linear algebra primitives used by the prediction subsystem.
//
// The library deliberately implements only what the predictors need:
// a dense row-major matrix, matrix/vector products, Cholesky and QR
// least-squares solvers, and a handful of vector helpers.  Everything is
// double precision; problem sizes are tiny (history windows of tens of
// samples, feature counts below ten), so cache blocking is unnecessary.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
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
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  Matrix transposed() const;

  /// Returns *this * other.
  Matrix operator*(const Matrix& other) const;
  /// Returns *this * v (v treated as a column vector).
  std::vector<double> operator*(const std::vector<double>& v) const;

  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix& operator+=(const Matrix& other);
  Matrix& operator*=(double s);

  /// Frobenius norm.
  double frobenius_norm() const;

  /// Extracts row r as a vector.
  std::vector<double> row(std::size_t r) const;
  /// Extracts column c as a vector.
  std::vector<double> col(std::size_t c) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

std::ostream& operator<<(std::ostream& os, const Matrix& m);

/// Solves the symmetric positive definite system A x = b via Cholesky
/// factorisation.  Throws std::runtime_error if A is not SPD (within a
/// small numeric tolerance handled by a diagonal jitter retry).
std::vector<double> cholesky_solve(const Matrix& a, const std::vector<double>& b);

/// Solves min_x ||A x - b||_2 by forming the normal equations with a tiny
/// ridge term (A^T A + lambda I) x = A^T b.  Suitable for the small,
/// well-conditioned regression problems in this library.
std::vector<double> least_squares(const Matrix& a, const std::vector<double>& b,
                                  double ridge = 1e-9);

/// The second half of least_squares, for callers that accumulate A^T A and
/// A^T b themselves: adds ridge * (1 + ||A^T A||_F) to the diagonal and
/// solves by cholesky_solve.  Given the same matrix and vector bits it
/// returns exactly what least_squares returns.
std::vector<double> solve_normal_equations(Matrix ata,
                                           const std::vector<double>& atb,
                                           double ridge);

/// Householder QR least squares: numerically sturdier than the normal
/// equations; used by tests to cross-validate least_squares().
std::vector<double> qr_least_squares(const Matrix& a, const std::vector<double>& b);

// ---- vector helpers ------------------------------------------------------

double dot(const std::vector<double>& a, const std::vector<double>& b);
double norm2(const std::vector<double>& v);
/// y += alpha * x
void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y);
std::vector<double> scaled(const std::vector<double>& v, double s);

}  // namespace tegrec::util
