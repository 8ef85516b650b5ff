#include "util/linalg.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "util/float_cmp.hpp"

namespace tegrec::util {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix index");
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix index");
  return data_[r * cols_ + c];
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& other) const {
  if (cols_ != other.rows_) {
    throw std::invalid_argument("Matrix multiply: dimension mismatch");
  }
  Matrix out(rows_, other.cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = data_[r * cols_ + k];
      if (is_exactly_zero(a)) continue;  // exact sparsity skip
      for (std::size_t c = 0; c < other.cols_; ++c) {
        out.data_[r * other.cols_ + c] += a * other.data_[k * other.cols_ + c];
      }
    }
  }
  return out;
}

std::vector<double> Matrix::operator*(const std::vector<double>& v) const {
  if (cols_ != v.size()) {
    throw std::invalid_argument("Matrix-vector multiply: dimension mismatch");
  }
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += data_[r * cols_ + c] * v[c];
    out[r] = acc;
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix out = *this;
  out += other;
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix subtract: dimension mismatch");
  }
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix add: dimension mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

double Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

std::vector<double> Matrix::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("Matrix::row");
  return {data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
          data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_)};
}

std::vector<double> Matrix::col(std::size_t c) const {
  if (c >= cols_) throw std::out_of_range("Matrix::col");
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
  return out;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < m.cols(); ++c) {
      os << m(r, c) << (c + 1 < m.cols() ? ", " : "");
    }
    os << (r + 1 < m.rows() ? ";\n" : "]");
  }
  return os;
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

std::vector<double> least_squares(const Matrix& a, const std::vector<double>& b,
                                  double ridge) {
  if (a.rows() != b.size()) {
    throw std::invalid_argument("least_squares: dimension mismatch");
  }
  const Matrix at = a.transposed();
  return solve_normal_equations(at * a, at * b, ridge);
}

std::vector<double> solve_normal_equations(Matrix ata,
                                           const std::vector<double>& atb,
                                           double ridge) {
  const double scale = 1.0 + ata.frobenius_norm();
  for (std::size_t i = 0; i < ata.rows(); ++i) ata(i, i) += ridge * scale;
  return cholesky_solve(ata, atb);
}

std::vector<double> qr_least_squares(const Matrix& a, const std::vector<double>& b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m < n) throw std::invalid_argument("qr_least_squares: underdetermined");
  if (m != b.size()) throw std::invalid_argument("qr_least_squares: dim mismatch");

  Matrix r = a;
  std::vector<double> rhs = b;
  // Householder transforms applied column by column.
  for (std::size_t k = 0; k < n; ++k) {
    double sigma = 0.0;
    for (std::size_t i = k; i < m; ++i) sigma += r(i, k) * r(i, k);
    sigma = std::sqrt(sigma);
    if (is_exactly_zero(sigma)) continue;
    if (r(k, k) > 0) sigma = -sigma;
    std::vector<double> v(m, 0.0);
    for (std::size_t i = k; i < m; ++i) v[i] = r(i, k);
    v[k] -= sigma;
    double vnorm2 = 0.0;
    for (std::size_t i = k; i < m; ++i) vnorm2 += v[i] * v[i];
    if (is_exactly_zero(vnorm2)) continue;
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

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(const std::vector<double>& v) { return std::sqrt(dot(v, v)); }

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

std::vector<double> scaled(const std::vector<double>& v, double s) {
  std::vector<double> out = v;
  for (double& x : out) x *= s;
  return out;
}

}  // namespace tegrec::util
