#include "predict/mlr.hpp"

#include <stdexcept>
#include <utility>

#include "util/float_cmp.hpp"
#include "util/linalg.hpp"

namespace tegrec::predict {

MlrPredictor::MlrPredictor(const MlrParams& params) : params_(params) {
  if (params_.lags == 0) throw std::invalid_argument("MlrPredictor: lags == 0");
}

void MlrPredictor::fit(const TemperatureHistory& history) {
  const std::size_t l = params_.lags;
  if (history.size() <= l) {
    throw std::invalid_argument("MlrPredictor::fit: history shorter than lags+1");
  }
  // The normal equations of the design matrix X (one row per (t, m):
  // [1, T_{t-1}, ..., T_{t-L}] for module m) and targets y = T_t, summed
  // row by row without building X.  Row order, operand order and the
  // exact-zero skip are those of util::least_squares(X, y, ridge) (X^T X
  // through Matrix::operator*, X^T y with no skip), so every cell sees the
  // same operations in the same order and beta comes out bit-identical;
  // tests/mlr_oracle.hpp keeps the design-matrix fit it is checked against.
  const std::size_t p = l + 1;
  util::Matrix xtx(p, p, 0.0);
  std::vector<double> xty(p, 0.0);
  std::vector<double> x(p);
  std::vector<const double*> lag_rows(p);
  double* g = xtx.data().data();
  const std::size_t n_modules = history.num_modules();
  for (std::size_t t = l; t < history.size(); ++t) {
    // Lag k feature = T_{t-k}; most recent lag first.
    for (std::size_t k = 1; k <= l; ++k) lag_rows[k] = history.row(t - k).data();
    const double* target = history.row(t).data();
    for (std::size_t m = 0; m < n_modules; ++m) {
      x[0] = 1.0;
      for (std::size_t k = 1; k <= l; ++k) x[k] = lag_rows[k][m];
      for (std::size_t r = 0; r < p; ++r) {
        const double a = x[r];
        if (util::is_exactly_zero(a)) continue;  // Matrix::operator*'s skip
        double* cell = g + r * p;
        for (std::size_t c = 0; c < p; ++c) cell[c] += a * x[c];
      }
      const double y = target[m];
      for (std::size_t r = 0; r < p; ++r) xty[r] += x[r] * y;
    }
  }
  beta_ = util::solve_normal_equations(std::move(xtx), xty, params_.ridge);
  fitted_ = true;
}

std::vector<double> MlrPredictor::predict_next(
    const TemperatureHistory& history) const {
  if (!fitted_) throw std::logic_error("MlrPredictor: predict before fit");
  if (history.size() < params_.lags) {
    throw std::invalid_argument("MlrPredictor::predict_next: short history");
  }
  // out[m] = b0 + b1 * T_t + b2 * T_{t-1} + ..., accumulated lag by lag in
  // that order for every module at once.
  const std::size_t n_modules = history.num_modules();
  const std::size_t last = history.size() - 1;
  std::vector<double> out(n_modules, beta_[0]);
  for (std::size_t k = 0; k < params_.lags; ++k) {
    const std::vector<double>& row = history.row(last - k);
    const double b = beta_[k + 1];
    for (std::size_t m = 0; m < n_modules; ++m) out[m] += b * row[m];
  }
  return out;
}

}  // namespace tegrec::predict
