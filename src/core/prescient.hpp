// Prescient (oracle) reconfiguration controller — an upper bound for DNOR.
//
// DNOR's switch-or-hold rule depends on forecast quality; this controller
// runs the same rule (core::switch_pays) on the *actual* future
// temperatures read from the trace instead of predicted ones.  Its inputs
// are not DNOR's exactly: at the defaults it integrates (tp + 1) / dt = 6
// trace steps where DNOR integrates 1 + tp / period = 5 rows, it evaluates
// each step at that step's own ambient where DNOR uses the current one,
// and it has no warm-up where DNOR adopts every new config until its
// 30-row history fills.  So its energy gap to DNOR-with-MLR is the cost of
// imperfect prediction plus those differences, and the gap to INOR
// approximates the value of the switch-or-hold rule itself.
// Simulation-only by construction (no real controller can see the
// future); lives in core so the ablation benches and tests can treat it as
// just another Reconfigurer.
#pragma once

#include <utility>

#include "core/inor.hpp"
#include "core/reconfigurer.hpp"
#include "switchfab/overhead.hpp"
#include "thermal/trace.hpp"

namespace tegrec::core {

struct PrescientParams {
  double control_period_s = 0.5;
  double tp_s = 2.0;  ///< lookahead window, matching DNOR's horizon
  InorOptions inor;
  switchfab::OverheadParams overhead;
};

class PrescientReconfigurer final : public Reconfigurer {
 public:
  /// `trace` must be the exact trace the simulator replays (the oracle
  /// looks up future steps by time).
  PrescientReconfigurer(const teg::DeviceParams& device,
                        const power::ConverterParams& converter,
                        const thermal::TemperatureTrace& trace,
                        const PrescientParams& params = {});

  std::string name() const override { return "Oracle"; }
  UpdateResult update(double time_s, const std::vector<double>& delta_t_k,
                      double ambient_c) override;
  void reset() override;
  AlgorithmCost algorithm_cost() const override {
    return AlgorithmCost::prescient();
  }

 private:
  teg::DeviceParams device_;
  power::Converter converter_;
  const thermal::TemperatureTrace* trace_;
  PrescientParams params_;

  Held held_;

  // Per-step scratch, reused across steps.
  std::vector<teg::LinearSource> ports_;   ///< this step's module ports
  teg::ArrayEvaluator evaluator_;          ///< over ports_
  InorScratch scratch_;
  std::vector<teg::LinearSource> row_ports_;  ///< one lookahead step's ports
  teg::ArrayEvaluator row_evaluator_;

  /// True output energies of the hold/switch candidates over the lookahead
  /// window, sharing one evaluator snapshot per trace step.
  std::pair<double, double> future_energies_j(const teg::ArrayConfig& c_old,
                                              const teg::ArrayConfig& c_new,
                                              double from_time_s);
};

}  // namespace tegrec::core
