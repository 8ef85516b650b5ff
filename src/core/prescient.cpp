#include "core/prescient.hpp"

#include <cmath>
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
    double from_time_s) {
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
    teg::module_ports(device_, trace_->step_delta_t(t), trace_->ambient_c(t),
                      row_ports_);
    row_evaluator_.assign(row_ports_);
    e_old += config_power_w(row_evaluator_, converter_, c_old) * dt;
    e_new += config_power_w(row_evaluator_, converter_, c_new) * dt;
  }
  return {e_old, e_new};
}

UpdateResult PrescientReconfigurer::update(double time_s,
                                           const std::vector<double>& delta_t_k,
                                           double ambient_c) {
  if (held_.holding(time_s)) return held_.hold();
  teg::module_ports(device_, delta_t_k, ambient_c, ports_);
  evaluator_.assign(ports_);
  teg::ArrayConfig c_new =
      inor_search(ports_, evaluator_, converter_, params_.inor, scratch_);
  bool adopt = true;  // Algorithm 2's rule, on oracle inputs
  if (held_.has_config && c_new != held_.config) {
    const auto [e_old, e_new] = future_energies_j(held_.config, c_new, time_s);
    adopt = switch_pays(params_.overhead, algorithm_cost(), held_.config, c_new,
                        config_power_w(evaluator_, converter_, held_.config),
                        e_old, e_new);
  }
  return held_.decide(std::move(c_new), adopt, /*always_actuate=*/false,
                      time_s + params_.tp_s + 1.0);
}

void PrescientReconfigurer::reset() { held_ = Held(); }

}  // namespace tegrec::core
