#include "util/linalg.hpp"

#include <cmath>
#include <stdexcept>

namespace tegrec::util {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix index");
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix index");
  return data_[r * cols_ + c];
}

double Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

namespace {

// In-place Cholesky of a copy; returns lower-triangular factor.
// Throws if a pivot goes non-positive.
Matrix cholesky_factor(Matrix a) {
  const std::size_t n = a.rows();
  if (a.cols() != n) throw std::invalid_argument("cholesky: matrix not square");
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= a(j, k) * a(j, k);
    if (diag <= 0.0) throw std::runtime_error("cholesky: matrix not SPD");
    const double ljj = std::sqrt(diag);
    a(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= a(i, k) * a(j, k);
      a(i, j) = acc / ljj;
    }
    for (std::size_t c = j + 1; c < n; ++c) a(j, c) = 0.0;
  }
  return a;
}

std::vector<double> cholesky_substitute(const Matrix& l, std::vector<double> b) {
  const std::size_t n = l.rows();
  // Forward solve L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * b[k];
    b[i] = acc / l(i, i);
  }
  // Back solve L^T x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= l(k, ii) * b[k];
    b[ii] = acc / l(ii, ii);
  }
  return b;
}

}  // namespace

std::vector<double> cholesky_solve(const Matrix& a, const std::vector<double>& b) {
  if (a.rows() != b.size()) {
    throw std::invalid_argument("cholesky_solve: dimension mismatch");
  }
  try {
    return cholesky_substitute(cholesky_factor(a), b);
  } catch (const std::runtime_error&) {
    // Retry once with diagonal jitter scaled to the matrix magnitude: the
    // normal-equation matrices here are occasionally semi-definite when the
    // history window contains constant signals.
    Matrix jittered = a;
    const double eps = 1e-10 * (1.0 + a.frobenius_norm());
    for (std::size_t i = 0; i < a.rows(); ++i) jittered(i, i) += eps;
    return cholesky_substitute(cholesky_factor(jittered), b);
  }
}

std::vector<double> solve_normal_equations(Matrix ata,
                                           const std::vector<double>& atb,
                                           double ridge) {
  const double scale = 1.0 + ata.frobenius_norm();
  for (std::size_t i = 0; i < ata.rows(); ++i) ata(i, i) += ridge * scale;
  return cholesky_solve(ata, atb);
}

}  // namespace tegrec::util
