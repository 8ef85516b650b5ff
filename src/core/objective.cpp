#include "core/objective.hpp"

#include "switchfab/switch_network.hpp"

namespace tegrec::core {

double config_power_w(const teg::ArrayEvaluator& evaluator,
                      const power::Converter& converter,
                      const teg::ArrayConfig& config) {
  return power::optimal_operating_point(evaluator.string_equivalent(config),
                                        converter)
      .output_power_w;
}

power::Converter::GroupRange group_count_window(
    std::span<const teg::LinearSource> ports, const power::Converter& converter) {
  double mean_vmpp = 0.0;
  for (const teg::LinearSource& m : ports) mean_vmpp += m.mpp_voltage_v();
  mean_vmpp /= static_cast<double>(ports.size());
  return converter.efficient_group_range(mean_vmpp, ports.size());
}

bool switch_pays(const switchfab::OverheadParams& overhead,
                 const AlgorithmCost& cost, const teg::ArrayConfig& held,
                 const teg::ArrayConfig& next, double p_now_w, double e_old_j,
                 double e_new_j) {
  const double e_overhead_j =
      switchfab::reconfiguration_cost(overhead,
                                      switchfab::switch_actuations(held, next),
                                      p_now_w, cost.budget_s(overhead))
          .energy_j;
  return e_old_j <= e_new_j - e_overhead_j;
}

}  // namespace tegrec::core
