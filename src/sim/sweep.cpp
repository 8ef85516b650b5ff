#include "sim/sweep.hpp"

#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>

#include "util/parallel.hpp"

namespace tegrec::sim {

namespace {

using ConfigMutator =
    std::function<void(thermal::TraceGeneratorConfig&, double value)>;

// Registered sweep parameters: every entry is a pure scalar write into the
// trace-generator config, so a spec naming one is fully content-addressed.
const std::map<std::string, ConfigMutator>& mutator_registry() {
  static const std::map<std::string, ConfigMutator> registry = {
      {"num_modules",
       [](thermal::TraceGeneratorConfig& c, double v) {
         // 2^53: every whole double below it is exact and fits size_t.
         if (!(v >= 1.0 && v < 0x1p53) || v != std::floor(v)) {
           throw std::invalid_argument(
               "sweep num_modules: values must be whole numbers >= 1");
         }
         c.layout.num_modules = static_cast<std::size_t>(v);
       }},
      {"surface_coupling",
       [](thermal::TraceGeneratorConfig& c, double v) {
         c.layout.surface_coupling = v;
       }},
      {"exchanger_k_per_length",
       [](thermal::TraceGeneratorConfig& c, double v) {
         c.layout.exchanger.k_per_length_w_mk = v;
       }},
      {"ambient_base_c",
       [](thermal::TraceGeneratorConfig& c, double v) {
         c.ambient.base_c = v;
         c.engine.ambient_c = v;
       }},
      {"thermal_mass_j_k",
       [](thermal::TraceGeneratorConfig& c, double v) {
         c.engine.thermal_mass_j_k = v;
       }},
      {"duration_scale",
       [](thermal::TraceGeneratorConfig& c, double v) {
         // Too long a cycle is left to generate_drive_cycle, which knows dt.
         if (!(v >= 0.0) || !std::isfinite(v)) {
           throw std::invalid_argument(
               "sweep duration_scale: values must be finite and >= 0");
         }
         for (auto& segment : c.segments) segment.duration_s *= v;
       }},
  };
  return registry;
}

const ConfigMutator& sweep_mutator(const std::string& name) {
  const auto& registry = mutator_registry();
  const auto it = registry.find(name);
  if (it != registry.end()) return it->second;
  std::string known;
  for (const std::string& key : sweep_parameter_names()) {
    if (!known.empty()) known += ", ";
    known += key;
  }
  throw std::invalid_argument("sweep: unknown parameter '" + name +
                              "' (registered: " + known + ")");
}

}  // namespace

std::vector<std::string> sweep_parameter_names() {
  std::vector<std::string> names;
  for (const auto& [key, fn] : mutator_registry()) {
    (void)fn;
    names.push_back(key);
  }
  return names;  // std::map iterates sorted
}

namespace detail {

std::vector<SweepPoint> sweep_direct(const thermal::TraceGeneratorConfig& base,
                                     const std::vector<double>& values,
                                     const std::string& parameter,
                                     const ComparisonOptions& comparison,
                                     std::size_t num_threads) {
  if (values.empty()) throw std::invalid_argument("sweep: no values");
  if (!comparison.include_dnor || !comparison.include_baseline) {
    throw std::invalid_argument(
        "sweep: DNOR and baseline must both be enabled");
  }
  const ConfigMutator& mutate = sweep_mutator(parameter);
  // Fail fast: a bad value anywhere in the list throws before any point
  // simulates.
  for (const double value : values) {
    thermal::TraceGeneratorConfig config = base;
    mutate(config, value);
  }
  std::vector<SweepPoint> out(values.size());
  util::parallel_for(values.size(), num_threads, [&](std::size_t i) {
    thermal::TraceGeneratorConfig config = base;
    mutate(config, values[i]);
    const thermal::TemperatureTrace trace = thermal::generate_trace(config);
    const ComparisonResult res = run_comparison_direct(trace, comparison);

    SweepPoint& point = out[i];
    point.value = values[i];
    point.dnor_energy_j = res.by_name("DNOR").energy_output_j;
    point.baseline_energy_j = res.by_name("Baseline").energy_output_j;
    point.gain = res.dnor_gain_over_baseline();
    point.dnor_ratio_to_ideal = res.by_name("DNOR").ratio_to_ideal();
  });
  return out;
}

}  // namespace detail

}  // namespace tegrec::sim
