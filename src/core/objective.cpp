#include "core/objective.hpp"

namespace tegrec::core {

double config_power_w(const teg::ArrayEvaluator& evaluator,
                      const power::Converter& converter,
                      const teg::ArrayConfig& config) {
  return config_operating_point(evaluator, converter, config).output_power_w;
}

power::OperatingPoint config_operating_point(const teg::ArrayEvaluator& evaluator,
                                             const power::Converter& converter,
                                             const teg::ArrayConfig& config) {
  return power::optimal_operating_point(evaluator.string_equivalent(config),
                                        converter);
}

double config_power_w(const teg::ArrayEvaluator& evaluator,
                      const power::Converter& converter,
                      std::span<const std::size_t> group_starts) {
  return config_operating_point(evaluator, converter, group_starts)
      .output_power_w;
}

power::OperatingPoint config_operating_point(
    const teg::ArrayEvaluator& evaluator, const power::Converter& converter,
    std::span<const std::size_t> group_starts) {
  return power::optimal_operating_point(
      evaluator.string_equivalent(group_starts), converter);
}

power::Converter::GroupRange group_count_window(const teg::TegArray& array,
                                                const power::Converter& converter) {
  double mean_vmpp = 0.0;
  for (std::size_t i = 0; i < array.size(); ++i) {
    mean_vmpp += array.module(i).port().mpp_voltage_v();
  }
  mean_vmpp /= static_cast<double>(array.size());
  return converter.efficient_group_range(mean_vmpp, array.size());
}

}  // namespace tegrec::core
