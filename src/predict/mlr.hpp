// Multiple Linear Regression temperature predictor (Section IV, [13]).
//
// The model the paper selects for DNOR: a pooled autoregressive linear
// model T_{t+1,i} = b0 + sum_k b_k * T_{t-k+1,i} fitted by least squares
// over every (module, time) pair in the history window.  Fitting is
// O(N * W * L^2) and prediction is O(N * L) — the "ignorable" cost the
// paper cites for MLR.
#pragma once

#include <vector>

#include "predict/predictor.hpp"

namespace tegrec::predict {

struct MlrParams {
  std::size_t lags = 4;       ///< autoregressive order L, 1..8
  double ridge = 1e-8;        ///< regularisation of the normal equations
};

class MlrPredictor final : public Predictor {
 public:
  explicit MlrPredictor(const MlrParams& params = {});

  std::string name() const override { return "MLR"; }
  std::size_t num_lags() const override { return params_.lags; }
  void fit(const TemperatureHistory& history) override;
  bool is_fitted() const override { return fitted_; }
  std::vector<double> predict_next(const TemperatureHistory& history) const override;

  /// Fitted coefficients: [intercept, b_1..b_L] (exposed for tests).
  const std::vector<double>& coefficients() const { return beta_; }

 private:
  MlrParams params_;
  std::vector<double> beta_;
  bool fitted_ = false;
};

}  // namespace tegrec::predict
