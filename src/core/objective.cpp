#include "core/objective.hpp"

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

}  // namespace tegrec::core
