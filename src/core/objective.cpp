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

namespace {

// Mean module MPP voltage, summed in module order, then the converter's
// window for it.
template <typename PortAt>
power::Converter::GroupRange window_of(std::size_t size, PortAt port_at,
                                       const power::Converter& converter) {
  double mean_vmpp = 0.0;
  for (std::size_t i = 0; i < size; ++i) {
    mean_vmpp += port_at(i).mpp_voltage_v();
  }
  mean_vmpp /= static_cast<double>(size);
  return converter.efficient_group_range(mean_vmpp, size);
}

}  // namespace

power::Converter::GroupRange group_count_window(const teg::TegArray& array,
                                                const power::Converter& converter) {
  return window_of(
      array.size(),
      [&](std::size_t i) -> const teg::LinearSource& {
        return array.module(i).port();
      },
      converter);
}

power::Converter::GroupRange group_count_window(
    std::span<const teg::LinearSource> ports, const power::Converter& converter) {
  return window_of(
      ports.size(),
      [&](std::size_t i) -> const teg::LinearSource& { return ports[i]; },
      converter);
}

}  // namespace tegrec::core
