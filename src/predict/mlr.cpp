#include "predict/mlr.hpp"

#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/float_cmp.hpp"
#include "util/linalg.hpp"

namespace tegrec::predict {

namespace {

constexpr std::size_t kMaxLags = 8;

// The normal equations of the design matrix X (one row per (t, m):
// [1, T_{t-1}, ..., T_{t-L}] for module m) and targets y = T_t, summed row
// by row into register accumulators without building X.  Every cell sums
// its products in the row order of the design-matrix fit in
// tests/mlr_oracle.hpp (oracle::least_squares in
// tests/least_squares_oracle.hpp), which forms X^T X with a dense product
// that skips an exactly-zero left factor and X^T y with no skip; beta must
// match that fit bit for bit.
//
// kMirror sums only the upper triangle and mirrors it.  A skipped product
// is 0 * x, which is +-0 whenever x is finite, and adding +-0 to a sum that
// starts at +0 changes no bit; products commute exactly.  So for finite
// rows the mirror is the oracle's matrix.  A non-finite cell in some row
// makes that column's diagonal sum non-finite, and the caller then redoes
// the pass with kMirror off: every cell summed, with +0 in place of each
// product the oracle skips, which matches the skip for every input.
template <std::size_t L, bool kMirror>
void accumulate(const TemperatureHistory& history, double* xtx, double* xty) {
  constexpr std::size_t kP = L + 1;
  double g[kP][kP] = {};
  double b[kP] = {};
  const std::size_t n_modules = history.num_modules();
  for (std::size_t t = L; t < history.size(); ++t) {
    // Lag k feature = T_{t-k}; most recent lag first.
    std::array<const double*, kP> lag_rows{};
    for (std::size_t k = 1; k <= L; ++k) lag_rows[k] = history.row(t - k).data();
    const double* target = history.row(t).data();
    for (std::size_t m = 0; m < n_modules; ++m) {
      double x[kP];
      x[0] = 1.0;
      for (std::size_t k = 1; k <= L; ++k) x[k] = lag_rows[k][m];
      // Fully unrolled, so every accumulator lives in a register.
#pragma GCC unroll 16
      for (std::size_t r = 0; r < kP; ++r) {
#pragma GCC unroll 16
        for (std::size_t c = kMirror ? r : 0; c < kP; ++c) {
          if constexpr (kMirror) {
            g[r][c] += x[r] * x[c];
          } else {
            g[r][c] += util::is_exactly_zero(x[r]) ? 0.0 : x[r] * x[c];
          }
        }
      }
      const double y = target[m];
      for (std::size_t r = 0; r < kP; ++r) b[r] += x[r] * y;
    }
  }
  for (std::size_t r = 0; r < kP; ++r) {
    for (std::size_t c = 0; c < kP; ++c) {
      xtx[r * kP + c] = kMirror && c < r ? g[c][r] : g[r][c];
    }
    xty[r] = b[r];
  }
}

using Kernel = void (*)(const TemperatureHistory&, double*, double*);

template <bool kMirror, std::size_t... I>
constexpr std::array<Kernel, sizeof...(I)> kernels(std::index_sequence<I...>) {
  return {&accumulate<I + 1, kMirror>...};
}

constexpr auto kMirrored = kernels<true>(std::make_index_sequence<kMaxLags>());
constexpr auto kFull = kernels<false>(std::make_index_sequence<kMaxLags>());

}  // namespace

MlrPredictor::MlrPredictor(const MlrParams& params) : params_(params) {
  if (params_.lags == 0) throw std::invalid_argument("MlrPredictor: lags == 0");
  if (params_.lags > kMaxLags) {
    throw std::invalid_argument("MlrPredictor: lags > 8");
  }
}

void MlrPredictor::fit(const TemperatureHistory& history) {
  const std::size_t l = params_.lags;
  if (history.size() <= l) {
    throw std::invalid_argument("MlrPredictor::fit: history shorter than lags+1");
  }
  const std::size_t p = l + 1;
  util::Matrix xtx(p, p);
  std::vector<double> xty(p);
  kMirrored[l - 1](history, xtx.data().data(), xty.data());
  for (std::size_t r = 0; r < p; ++r) {
    if (!std::isfinite(xtx(r, r))) {
      kFull[l - 1](history, xtx.data().data(), xty.data());
      break;
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
