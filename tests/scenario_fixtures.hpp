// Test-only inputs drawn from the named scenarios: traces compressed in
// time, temperature fields sampled from them, and the converter variants
// the pruned candidate searches (INOR, warm EHTR) must stay exact under.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "power/converter.hpp"
#include "thermal/scenario.hpp"
#include "thermal/trace.hpp"

namespace tegrec::fixtures {

struct ConverterVariant {
  const char* name;
  power::ConverterParams params;
};

/// The default charger plus the edges of the bound's math: no voltage
/// penalty (the window is the whole input range), no fixed loss (g(p) =
/// p), an input cap low enough that most candidates saturate and tie, and
/// a harsh narrow-window, high-loss charger.
inline std::vector<ConverterVariant> converter_variants() {
  std::vector<ConverterVariant> out;
  out.push_back({"default", {}});
  power::ConverterParams p;
  p.voltage_penalty = 0.0;
  out.push_back({"no_voltage_penalty", p});
  p = {};
  p.fixed_loss_w = 0.0;
  out.push_back({"no_fixed_loss", p});
  p = {};
  p.max_input_power_w = 5.0;
  out.push_back({"tiny_cap", p});
  p = {};
  p.voltage_penalty = 0.3;
  p.fixed_loss_w = 20.0;
  p.min_input_v = 8.0;
  p.max_input_v = 24.0;
  out.push_back({"harsh", p});
  return out;
}

/// One control step's inputs.
struct Field {
  std::vector<double> delta_t_k;
  double ambient_c = 0.0;
};

/// A named scenario `modules` wide, its segments scaled to `duration_s` in
/// total, so short runs still visit every drive segment.
inline thermal::TemperatureTrace compressed_trace(const std::string& name,
                                                  std::uint64_t seed,
                                                  std::size_t modules,
                                                  double duration_s) {
  thermal::TraceGeneratorConfig config = thermal::scenario(name);
  config.layout.num_modules = modules;
  config.seed = seed;
  double total_s = 0.0;
  for (const auto& segment : config.segments) total_s += segment.duration_s;
  for (auto& segment : config.segments) {
    segment.duration_s *= duration_s / total_s;
  }
  return thermal::generate_trace(config);
}

/// `count` fields spread evenly over compressed_trace(..., 90 s).
inline std::vector<Field> scenario_fields(const std::string& name,
                                          std::uint64_t seed,
                                          std::size_t modules,
                                          std::size_t count) {
  const thermal::TemperatureTrace trace =
      compressed_trace(name, seed, modules, 90.0);
  std::vector<Field> out;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t t = (k + 1) * trace.num_steps() / (count + 1);
    out.push_back({trace.step_delta_t(t), trace.ambient_c(t)});
  }
  return out;
}

}  // namespace tegrec::fixtures
