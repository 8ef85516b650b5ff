// Full 800 s drive-cycle harvest with DNOR, including CSV export.
//
// Demonstrates the complete pipeline a user would run to evaluate a
// radiator TEG retrofit: synthesise (or load) a drive trace, run the
// prediction-based controller against the full substrate, inspect the
// energy ledger and battery state, and export per-step results for
// plotting.
//
//   ./build/examples/drive_cycle_harvest [output_dir]
#include <cstdio>
#include <string>

#include "core/dnor.hpp"
#include "core/fixed_baseline.hpp"
#include "sim/simulator.hpp"
#include "sim/telemetry.hpp"
#include "thermal/trace.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace tegrec;
  const std::string out_dir = argc > 1 ? argv[1] : "/tmp";

  // 1. Synthesise the 800 s Porter-II-style drive (fixed seed: the same
  //    trace every run; change the seed for a different drive).
  thermal::TraceGeneratorConfig config;
  config.seed = 2018;
  const thermal::TemperatureTrace trace = thermal::generate_trace(config);
  const std::string trace_path = out_dir + "/tegrec_trace.csv";
  trace.save_csv(trace_path);
  std::printf("trace: %zu modules x %zu steps (%.0f s) -> %s\n",
              trace.num_modules(), trace.num_steps(), trace.duration_s(),
              trace_path.c_str());

  // 2. Run DNOR and the fixed baseline.
  const teg::DeviceParams device = teg::tgm_199_1_4_0_8();
  const power::ConverterParams charger;
  core::DnorReconfigurer dnor(device, charger);
  auto baseline = core::FixedBaselineReconfigurer::square_grid(trace.num_modules());

  const sim::SimulationResult r_dnor = sim::run_simulation(dnor, trace);
  const sim::SimulationResult r_base = sim::run_simulation(baseline, trace);

  // 3. Energy ledger.
  std::printf("\n--- 800 s energy ledger ---\n");
  for (const auto* r : {&r_dnor, &r_base}) {
    std::printf("%-9s harvested %8.1f J (%5.2f W avg), overhead %6.2f J, "
                "switches %4zu, battery +%6.1f J, final SOC %.4f\n",
                r->algorithm.c_str(), r->energy_output_j, r->mean_power_w(),
                r->switch_overhead_j, r->num_switch_events, r->battery_energy_j,
                r->final_soc);
  }
  std::printf("DNOR gain over fixed wiring: %+.1f%%\n",
              100.0 * (r_dnor.energy_output_j / r_base.energy_output_j - 1.0));

  // 4. Per-step CSV for plotting (time, power, ideal, switch markers).
  util::CsvTable steps;
  steps.header = {"time_s", "dnor_w", "baseline_w", "ideal_w", "dnor_switch"};
  for (std::size_t t = 0; t < r_dnor.steps.size(); ++t) {
    steps.rows.push_back({r_dnor.steps[t].time_s, r_dnor.steps[t].net_power_w,
                          r_base.steps[t].net_power_w,
                          r_dnor.steps[t].ideal_power_w,
                          r_dnor.steps[t].switch_actuations > 0 ? 1.0 : 0.0});
  }
  const std::string steps_path = out_dir + "/tegrec_power.csv";
  util::write_csv(steps_path, steps);
  std::printf("\nper-step results -> %s\n", steps_path.c_str());

  // 5. Round-trip check: the exported trace reloads identically.
  const thermal::TemperatureTrace reloaded = sim::load_trace_csv(trace_path);
  std::printf("trace CSV round-trip: %zu steps reloaded, dt %.2f s -> %s\n",
              reloaded.num_steps(), reloaded.dt_s(),
              reloaded.num_steps() == trace.num_steps() ? "OK" : "MISMATCH");
  return 0;
}
