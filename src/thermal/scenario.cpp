#include "thermal/scenario.hpp"

#include <algorithm>
#include <stdexcept>

namespace tegrec::thermal {

namespace {

using K = DriveSegment::Kind;

// --------------------------------------------------------- vehicle drives

// The paper's evaluation input: the default config IS the 800 s Porter II
// mixed drive (idle -> urban -> arterial -> hill -> highway -> urban ->
// idle) with 100 modules on the radiator.
TraceGeneratorConfig porter_800s() {
  return TraceGeneratorConfig{};
}

// Dense signalised traffic with idle-stop: the engine is off at every
// light, so the coolant — and with it the whole spatial dT profile —
// sawtooths between launches.  Hard on DNOR's switching budget.
TraceGeneratorConfig urban_stop_start() {
  TraceGeneratorConfig config;
  config.segments = {
      {K::kIdle, 30.0, 0.0, 0.0},
      {K::kStopStart, 300.0, 42.0, 0.0},
      {K::kUrban, 140.0, 30.0, 0.0},
      {K::kStopStart, 270.0, 38.0, 0.0},
      {K::kIdle, 60.0, 0.0, 0.0},
  };
  config.seed = 2101;
  return config;
}

// Overnight cold soak at -5 C, then fast idle and a gentle drive-away:
// the coolant starts *at ambient* (zero harvestable dT) and the whole
// trace is one below-thermostat warm-up transient.
TraceGeneratorConfig winter_cold_start() {
  TraceGeneratorConfig config;
  config.ambient.base_c = -5.0;
  config.engine.ambient_c = -5.0;
  config.engine.initial_coolant_c = -5.0;  // soaked to ambient overnight
  config.segments = {
      {K::kColdStart, 200.0, 35.0, 0.0},
      {K::kUrban, 240.0, 32.0, 0.0},
      {K::kCruise, 160.0, 70.0, 0.0},
  };
  config.seed = 2102;
  return config;
}

// Loaded mountain ascent: sustained grades with an ambient profile that
// cools with altitude and steps through two tunnels — peak coolant
// temperatures and a moving cold side at once.
TraceGeneratorConfig alpine_climb() {
  TraceGeneratorConfig config;
  config.segments = {
      {K::kCruise, 120.0, 70.0, 0.0},
      {K::kHill, 240.0, 45.0, 6.5},
      {K::kHill, 180.0, 40.0, 8.0},
      {K::kCruise, 120.0, 60.0, 0.0},
  };
  config.ambient.base_c = 18.0;
  config.ambient.drift_c_per_hour = -25.0;  // ~1300 m of climb per hour
  config.ambient.steps = {{300.0, 6.0}, {360.0, -6.0}};  // tunnel in/out
  config.ambient.noise_sigma_c = 0.3;
  config.seed = 2103;
  return config;
}

// ------------------------------------------------------ industrial plants

// Shared plant baseline: circulation pump instead of a belt-driven one,
// forced-draught fan always on, process-control valve in place of the wax
// thermostat.  Individual scenarios retune capacity and band.
TraceGeneratorConfig industrial_base() {
  TraceGeneratorConfig config;
  config.engine.pump_flow_idle_lpm = 55.0;  // electric circulation pump
  config.engine.pump_flow_max_lpm = 85.0;
  config.engine.fan_on_c = 0.0;             // forced draught, always engaged
  config.engine.fan_air_speed_ms = 5.0;
  config.engine.max_air_speed_ms = 8.0;
  config.engine.radiator_face_area_m2 = 1.0;
  // The economiser/quench loop captures about a third of firing power.
  config.engine.heat_to_coolant_fraction = 0.35;
  config.vehicle.idle_power_kw = 15.0;      // pilot burner + auxiliaries
  return config;
}

// Boiler economiser duct: 16 m of serpentine flue path instrumented with
// 400 modules, steady firing stepped up through a load ramp — the paper
// conclusion's "industrial boilers and heat exchangers" at array scale.
TraceGeneratorConfig boiler_economiser() {
  TraceGeneratorConfig config = industrial_base();
  config.layout.num_modules = 400;
  config.layout.exchanger.tube_length_m = 16.0;
  config.layout.exchanger.k_per_length_w_mk = 700.0;
  config.engine.thermostat_open_c = 96.0;   // process-control band
  config.engine.thermostat_full_c = 104.0;
  config.engine.initial_coolant_c = 97.0;
  config.engine.thermal_mass_j_k = 500000.0;  // big steel mass
  config.vehicle.max_engine_power_kw = 400.0;  // rated firing capacity
  config.segments = {
      {K::kSteadyProcess, 240.0, 0.0, 0.0, 220.0},
      {K::kLoadRamp, 120.0, 0.0, 0.0, 220.0, 320.0},
      {K::kSteadyProcess, 240.0, 0.0, 0.0, 320.0},
  };
  config.seed = 2104;
  return config;
}

// Batch kiln: periodic high-fire/low-fire cycles after a preheat ramp.
// The firing swing drags the whole temperature profile up and down every
// few minutes — the industrial analogue of stop-and-go traffic.
TraceGeneratorConfig kiln_batch() {
  TraceGeneratorConfig config = industrial_base();
  config.layout.num_modules = 200;
  config.layout.exchanger.tube_length_m = 10.0;
  config.layout.exchanger.k_per_length_w_mk = 850.0;
  config.engine.thermostat_open_c = 90.0;   // wide control band: the batch
  config.engine.thermostat_full_c = 110.0;  // swing is the point
  config.engine.initial_coolant_c = 92.0;
  config.engine.thermal_mass_j_k = 300000.0;
  config.vehicle.max_engine_power_kw = 350.0;
  config.segments = {
      {K::kLoadRamp, 120.0, 0.0, 0.0, 80.0, 280.0},
      {K::kBatchCycle, 600.0, 0.0, 0.0, 280.0, 40.0, 180.0},
  };
  config.seed = 2105;
  return config;
}

struct ScenarioEntry {
  const char* name;
  const char* description;
  TraceGeneratorConfig (*build)();
};

// Sorted by name; scenario_catalog() asserts the order so lookups can rely
// on it.
const ScenarioEntry kScenarios[] = {
    {"alpine_climb",
     "Loaded mountain ascent: sustained 6.5-8% grades, ambient cooling with "
     "altitude plus two tunnel steps",
     &alpine_climb},
    {"boiler_economiser",
     "Boiler economiser duct: 400 modules along 16 m of flue path, steady "
     "firing stepped 220->320 kW through a load ramp",
     &boiler_economiser},
    {"kiln_batch",
     "Batch kiln: 200 modules, preheat ramp then periodic 280/40 kW "
     "high-/low-fire cycles (180 s period)",
     &kiln_batch},
    {"porter_800s",
     "The paper's 800 s Hyundai Porter II mixed drive (idle, urban, "
     "arterial, hill, highway), 100 modules",
     &porter_800s},
    {"urban_stop_start",
     "Signalised city traffic with idle-stop: engine off at every light, "
     "coolant sawtooths between launches",
     &urban_stop_start},
    {"winter_cold_start",
     "-5 C overnight soak, fast idle and gentle drive-away: a full "
     "below-thermostat warm-up transient",
     &winter_cold_start},
};

}  // namespace

TraceGeneratorConfig scenario(const std::string& name) {
  for (const ScenarioEntry& entry : kScenarios) {
    if (name == entry.name) return entry.build();
  }
  std::string known;
  for (const std::string& known_name : scenario_names()) {
    if (!known.empty()) known += ", ";
    known += known_name;
  }
  throw std::invalid_argument("unknown scenario '" + name +
                              "' (registered: " + known + ")");
}

bool has_scenario(const std::string& name) {
  for (const ScenarioEntry& entry : kScenarios) {
    if (name == entry.name) return true;
  }
  return false;
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const ScenarioEntry& entry : kScenarios) names.emplace_back(entry.name);
  return names;
}

const std::vector<ScenarioInfo>& scenario_catalog() {
  static const std::vector<ScenarioInfo> catalog = [] {
    std::vector<ScenarioInfo> out;
    for (const ScenarioEntry& entry : kScenarios) {
      out.push_back({entry.name, entry.description});
    }
    if (!std::is_sorted(out.begin(), out.end(),
                        [](const ScenarioInfo& a, const ScenarioInfo& b) {
                          return a.name < b.name;
                        })) {
      throw std::logic_error("scenario catalog must stay sorted by name");
    }
    return out;
  }();
  return catalog;
}

}  // namespace tegrec::thermal
