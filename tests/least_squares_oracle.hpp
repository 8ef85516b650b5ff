// Test-only least-squares references: least_squares forms A^T A and
// A^T b with the dense products below and hands them to
// util::solve_normal_equations, and qr_least_squares (Householder QR)
// cross-validates it.  tests/mlr_oracle.hpp builds the MLR design matrix
// on top of least_squares, and test_mlr checks the library's row-by-row
// accumulation against it bit for bit; predict/mlr.cpp's summation order
// (and its exact-zero skip) is defined by these products, so their loop
// order must not change.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "util/float_cmp.hpp"
#include "util/linalg.hpp"

namespace tegrec::oracle {

inline util::Matrix transposed(const util::Matrix& a) {
  util::Matrix t(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) t(c, r) = a(r, c);
  return t;
}

/// Returns a * b.
inline util::Matrix multiply(const util::Matrix& a, const util::Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("Matrix multiply: dimension mismatch");
  }
  util::Matrix out(a.rows(), b.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double x = a.data()[r * a.cols() + k];
      if (util::is_exactly_zero(x)) continue;  // exact sparsity skip
      for (std::size_t c = 0; c < b.cols(); ++c) {
        out.data()[r * b.cols() + c] += x * b.data()[k * b.cols() + c];
      }
    }
  }
  return out;
}

/// Returns a * v (v treated as a column vector).
inline std::vector<double> multiply(const util::Matrix& a,
                                    const std::vector<double>& v) {
  if (a.cols() != v.size()) {
    throw std::invalid_argument("Matrix-vector multiply: dimension mismatch");
  }
  std::vector<double> out(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) {
      acc += a.data()[r * a.cols() + c] * v[c];
    }
    out[r] = acc;
  }
  return out;
}

/// Solves min_x ||A x - b||_2 by forming the normal equations with a tiny
/// ridge term (A^T A + lambda I) x = A^T b.
inline std::vector<double> least_squares(const util::Matrix& a,
                                         const std::vector<double>& b,
                                         double ridge = 1e-9) {
  if (a.rows() != b.size()) {
    throw std::invalid_argument("least_squares: dimension mismatch");
  }
  const util::Matrix at = transposed(a);
  return util::solve_normal_equations(multiply(at, a), multiply(at, b), ridge);
}

/// Householder QR least squares: numerically sturdier than the normal
/// equations; cross-validates least_squares().
inline std::vector<double> qr_least_squares(const util::Matrix& a,
                                            const std::vector<double>& b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m < n) throw std::invalid_argument("qr_least_squares: underdetermined");
  if (m != b.size()) {
    throw std::invalid_argument("qr_least_squares: dim mismatch");
  }

  util::Matrix r = a;
  std::vector<double> rhs = b;
  // Householder transforms applied column by column.
  for (std::size_t k = 0; k < n; ++k) {
    double sigma = 0.0;
    for (std::size_t i = k; i < m; ++i) sigma += r(i, k) * r(i, k);
    sigma = std::sqrt(sigma);
    if (util::is_exactly_zero(sigma)) continue;
    if (r(k, k) > 0) sigma = -sigma;
    std::vector<double> v(m, 0.0);
    for (std::size_t i = k; i < m; ++i) v[i] = r(i, k);
    v[k] -= sigma;
    double vnorm2 = 0.0;
    for (std::size_t i = k; i < m; ++i) vnorm2 += v[i] * v[i];
    if (util::is_exactly_zero(vnorm2)) continue;
    for (std::size_t c = k; c < n; ++c) {
      double proj = 0.0;
      for (std::size_t i = k; i < m; ++i) proj += v[i] * r(i, c);
      proj = 2.0 * proj / vnorm2;
      for (std::size_t i = k; i < m; ++i) r(i, c) -= proj * v[i];
    }
    double proj = 0.0;
    for (std::size_t i = k; i < m; ++i) proj += v[i] * rhs[i];
    proj = 2.0 * proj / vnorm2;
    for (std::size_t i = k; i < m; ++i) rhs[i] -= proj * v[i];
  }
  // Back substitution on the upper-triangular R.
  std::vector<double> x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = rhs[ii];
    for (std::size_t c = ii + 1; c < n; ++c) acc -= r(ii, c) * x[c];
    const double d = r(ii, ii);
    if (std::abs(d) < 1e-300) throw std::runtime_error("qr: rank deficient");
    x[ii] = acc / d;
  }
  return x;
}

}  // namespace tegrec::oracle
