// Test-only reference for predict::MlrPredictor::fit: the design-matrix
// formulation.  It builds X (one row per (t, m): [1, T_{t-1}, ...,
// T_{t-L}]) and y = T_t in the fit's row order and hands them to
// oracle::least_squares.  The library accumulates X^T X and X^T y row by row
// instead; tests/test_mlr.cpp checks the coefficients agree bit for bit,
// and checks predict_next against the per-module lag-window forecast.
#pragma once

#include <cstddef>
#include <vector>

#include "predict/history.hpp"
#include "least_squares_oracle.hpp"
#include "util/linalg.hpp"

namespace tegrec::oracle {

inline std::vector<double> mlr_design_fit(
    const predict::TemperatureHistory& history, std::size_t lags,
    double ridge) {
  const std::size_t n_modules = history.num_modules();
  const std::size_t rows = n_modules * (history.size() - lags);
  util::Matrix x(rows, lags + 1);
  std::vector<double> y(rows);
  std::size_t r = 0;
  for (std::size_t t = lags; t < history.size(); ++t) {
    for (std::size_t m = 0; m < n_modules; ++m, ++r) {
      x(r, 0) = 1.0;
      for (std::size_t k = 1; k <= lags; ++k) x(r, k) = history.row(t - k)[m];
      y[r] = history.row(t)[m];
    }
  }
  return least_squares(x, y, ridge);
}

/// One-step forecast through per-module lag windows: b0 + sum_k b_k * T_{t-k+1}.
inline std::vector<double> mlr_lag_window_predict(
    const predict::TemperatureHistory& history,
    const std::vector<double>& beta) {
  const std::size_t lags = beta.size() - 1;
  std::vector<double> out(history.num_modules());
  for (std::size_t m = 0; m < history.num_modules(); ++m) {
    const std::vector<double> window = history.lag_window(m, lags);
    double acc = beta[0];
    for (std::size_t k = 0; k < lags; ++k) acc += beta[k + 1] * window[k];
    out[m] = acc;
  }
  return out;
}

}  // namespace tegrec::oracle
