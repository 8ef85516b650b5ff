#include "core/prescient.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/objective.hpp"

namespace tegrec::core {

PrescientReconfigurer::PrescientReconfigurer(
    const teg::DeviceParams& device, const power::ConverterParams& converter,
    const thermal::TemperatureTrace& trace, const PrescientParams& params)
    : device_(device), converter_(converter), trace_(&trace), params_(params) {
  if (params_.control_period_s <= 0.0 || params_.tp_s <= 0.0) {
    throw std::invalid_argument("PrescientReconfigurer: non-positive period");
  }
  if (trace.num_steps() == 0) {
    throw std::invalid_argument("PrescientReconfigurer: empty trace");
  }
}

std::pair<double, double> PrescientReconfigurer::future_energies_j(
    const teg::ArrayConfig& c_old, const teg::ArrayConfig& c_new,
    double from_time_s) const {
  // True output energies over [from, from + tp + 1) read straight from the
  // trace — the quantities DNOR can only estimate.
  const double dt = trace_->dt_s();
  const std::size_t first = trace_->step_at_time(from_time_s);
  const auto steps = static_cast<std::size_t>(
      std::llround((params_.tp_s + 1.0) / dt));
  double e_old = 0.0;
  double e_new = 0.0;
  for (std::size_t k = 0; k < steps; ++k) {
    const std::size_t t = first + k;
    if (t >= trace_->num_steps()) break;
    const teg::TegArray array(device_, trace_->step_delta_t(t),
                              trace_->ambient_c(t));
    const teg::ArrayEvaluator evaluator(array);
    e_old += config_power_w(evaluator, converter_, c_old) * dt;
    e_new += config_power_w(evaluator, converter_, c_new) * dt;
  }
  return {e_old, e_new};
}

UpdateResult PrescientReconfigurer::update(double time_s,
                                           const std::vector<double>& delta_t_k,
                                           double ambient_c) {
  UpdateResult result;
  if (has_config_ && time_s + 1e-9 < next_decision_time_s_) {
    result.config = current_;
    return result;
  }
  const teg::TegArray array(device_, delta_t_k, ambient_c);
  const teg::ArrayEvaluator evaluator(array);
  InorScratch scratch;
  teg::ArrayConfig c_new =
      inor_search(array, evaluator, converter_, params_.inor, scratch);

  bool adopt = true;
  if (has_config_ && c_new != current_) {
    const auto [e_old, e_new] = future_energies_j(current_, c_new, time_s);
    const std::size_t toggles = 3 * current_.boundary_distance(c_new);
    const double p_now = config_power_w(evaluator, converter_, current_);
    // Mirrors the stepper's actuation charge, own compute budget included.
    const double e_overhead =
        switchfab::reconfiguration_cost(
            params_.overhead, toggles, p_now,
            algorithm_cost().budget_s(params_.overhead))
            .energy_j;
    adopt = e_old <= e_new - e_overhead;  // Algorithm 2's rule, oracle inputs
  } else if (has_config_) {
    adopt = false;
  }

  result.invoked = true;
  if (adopt) {
    result.switched = !has_config_ || c_new != current_;
    result.actuate = result.switched;
    current_ = std::move(c_new);
    has_config_ = true;
    if (result.switched) ++switches_;
  }
  next_decision_time_s_ = time_s + params_.tp_s + 1.0;
  result.config = current_;
  return result;
}

void PrescientReconfigurer::reset() {
  next_decision_time_s_ = 0.0;
  has_config_ = false;
  current_ = teg::ArrayConfig();
  switches_ = 0;
}

}  // namespace tegrec::core
