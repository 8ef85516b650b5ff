#include "switchfab/overhead.hpp"

#include <stdexcept>

namespace tegrec::switchfab {

OverheadCost reconfiguration_cost(const OverheadParams& params,
                                  std::size_t num_switch_actuations,
                                  double output_power_w, double compute_budget_s) {
  if (output_power_w < 0.0) {
    throw std::invalid_argument("reconfiguration_cost: negative power");
  }
  if (compute_budget_s < 0.0) {
    throw std::invalid_argument("reconfiguration_cost: negative compute budget");
  }
  OverheadCost cost;
  cost.timing_s = params.sensing_delay_s + compute_budget_s +
                  static_cast<double>(num_switch_actuations) *
                      params.per_switch_delay_s +
                  params.mppt_settle_s;
  cost.energy_j = output_power_w * cost.timing_s +
                  static_cast<double>(num_switch_actuations) *
                      params.per_switch_energy_j;
  return cost;
}

}  // namespace tegrec::switchfab
