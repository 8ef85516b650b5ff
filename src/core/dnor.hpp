// DNOR — Durable Near-Optimal Reconfiguration (Algorithm 2).
//
// The paper's headline contribution: INOR wrapped in a prediction-based
// switch-or-hold rule.  Every tp + 1 seconds the controller
//   1. runs INOR on the current distribution to get C_new,
//   2. forecasts the next tp seconds of per-module temperatures (MLR by
//      default — the most accurate/fastest of the three tested methods),
//   3. integrates the predicted output energy of C_old and C_new over the
//      coming tp + 1 seconds, and
//   4. actuates only if  E_old <= E_new - E_overhead,
// so a configuration survives until the predicted loss of keeping it
// exceeds the cost of switching — cutting actuation energy by ~100x while
// keeping output within a few percent of INOR's (Table I).  Step 4 is
// core::switch_pays, the one copy of the rule, which the prescient oracle
// shares.  Each UpdateResult reports whether a decision ran (`invoked`)
// and whether it switched; the stepper sums those into num_invocations and
// num_switch_events.
#pragma once

#include <memory>
#include <utility>

#include "core/inor.hpp"
#include "core/reconfigurer.hpp"
#include "predict/mlr.hpp"
#include "predict/predictor.hpp"
#include "switchfab/overhead.hpp"

namespace tegrec::core {

struct DnorParams {
  double control_period_s = 0.5;  ///< sensing cadence (matches INOR/EHTR)
  double tp_s = 2.0;              ///< prediction lead; decisions every tp+1 s
  std::size_t history_window = 30;///< sliding window for predictor fitting
  InorOptions inor;               ///< candidate-generation window
  switchfab::OverheadParams overhead;  ///< E_overhead model for the rule
};

class DnorReconfigurer final : public Reconfigurer {
 public:
  /// `predictor` defaults to MLR with its standard parameters; inject BPNN
  /// or SVR to reproduce the predictor ablation.
  DnorReconfigurer(const teg::DeviceParams& device,
                   const power::ConverterParams& converter,
                   const DnorParams& params = {},
                   std::unique_ptr<predict::Predictor> predictor = nullptr);

  std::string name() const override { return "DNOR"; }
  UpdateResult update(double time_s, const std::vector<double>& delta_t_k,
                      double ambient_c) override;
  void reset() override;
  AlgorithmCost algorithm_cost() const override {
    return AlgorithmCost::dnor();
  }

  /// DNOR is checkpoint-pure through its archived history: the predictor is
  /// re-fit from history_ before every decision, so serialising the window
  /// plus the decision-cadence scalars reproduces the exact future decision
  /// stream — but only when the predictor's refit is itself pure (MLR/SVR;
  /// BPNN's persistent SGD RNG breaks the contract and reports false here).
  bool supports_checkpoint() const override;
  std::string checkpoint_state() const override;
  void restore_checkpoint_state(const std::string& state) override;

 private:
  teg::DeviceParams device_;
  power::Converter converter_;
  DnorParams params_;
  std::unique_ptr<predict::Predictor> predictor_;
  std::unique_ptr<predict::TemperatureHistory> history_;

  Held held_;

  // Per-step scratch, reused across steps; never checkpointed.
  std::vector<double> temps_;              ///< sensed hot-side temperatures
  std::vector<teg::LinearSource> ports_;   ///< this step's module ports
  teg::ArrayEvaluator evaluator_;          ///< over ports_
  InorScratch inor_scratch_;
  std::vector<double> row_delta_;          ///< one energy row's clamped dT
  std::vector<teg::LinearSource> row_ports_;
  teg::ArrayEvaluator row_evaluator_;

  /// Predicted output energies of the hold/switch candidates over now + the
  /// forecast rows, sharing one evaluator snapshot per row.
  std::pair<double, double> predicted_energies_j(
      const teg::ArrayConfig& c_old, const teg::ArrayConfig& c_new,
      const std::vector<double>& now_temps,
      const std::vector<std::vector<double>>& forecast, double ambient_c);
};

}  // namespace tegrec::core
