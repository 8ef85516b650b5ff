// Scalability scenario from the paper's conclusion: a larger-scale heat
// source ("industrial boilers and heat exchangers") instrumented with a
// 400-module TEG array.
//
// Demonstrates (a) the industrial side of the workload library — the
// `boiler_economiser` scenario's firing schedule is real process-load
// physics (kSteadyProcess/kLoadRamp segments), not a drive cycle in
// disguise — and (b) the O(N) vs O(N^3) runtime gap that motivates
// INOR/DNOR at this scale.
//
//   ./build/examples/industrial_boiler
#include <chrono>
#include <cstdio>

#include "core/dnor.hpp"
#include "core/ehtr.hpp"
#include "core/fixed_baseline.hpp"
#include "core/inor.hpp"
#include "sim/simulator.hpp"
#include "thermal/scenario.hpp"
#include "thermal/trace.hpp"
#include "util/table.hpp"

int main() {
  using namespace tegrec;

  // The `boiler_economiser` scenario from the workload library: a 16 m
  // serpentine flue duct instrumented with 400 modules, whose load profile
  // is a real firing schedule (kSteadyProcess held levels stepped through a
  // kLoadRamp) driven by the process-load model — no drive-cycle aliasing.
  // The same name runs through `tegrec_cli simulate --scenario
  // boiler_economiser` and `trace.scenario = boiler_economiser` spec files.
  thermal::TraceGeneratorConfig config =
      thermal::scenario("boiler_economiser");
  const thermal::TemperatureTrace trace = thermal::generate_trace(config);
  std::printf("boiler trace: %zu modules over %.0f m, %.0f s\n",
              trace.num_modules(), config.layout.exchanger.tube_length_m,
              trace.duration_s());
  const auto dt0 = trace.step_delta_t(0);
  std::printf("dT profile at t=0: %.1f K (inlet) .. %.1f K (outlet)\n\n",
              dt0.front(), dt0.back());

  const teg::DeviceParams device = teg::tgm_199_1_4_0_8();
  const power::ConverterParams charger;

  // One-shot search runtime at N=400: the scalability claim in numbers.
  {
    const teg::TegArray array(device, dt0, trace.ambient_c(0));
    const power::Converter conv(charger);
    const auto t0 = std::chrono::steady_clock::now();
    const teg::ArrayConfig c_inor = core::inor_search(array, conv);
    const auto t1 = std::chrono::steady_clock::now();
    const teg::ArrayConfig c_ehtr = core::ehtr_search(array, conv);
    const auto t2 = std::chrono::steady_clock::now();
    const double ms_inor = std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double ms_ehtr = std::chrono::duration<double, std::milli>(t2 - t1).count();
    std::printf("single reconfiguration at N=400:\n");
    std::printf("  INOR  %8.2f ms -> n=%zu groups\n", ms_inor, c_inor.num_groups());
    std::printf("  EHTR  %8.2f ms -> n=%zu groups   (%.0fx slower)\n\n", ms_ehtr,
                c_ehtr.num_groups(), ms_ehtr / ms_inor);
  }

  // Full 600 s harvest comparison across the firing schedule (EHTR's 0.5 s
  // period is already marginal against its own runtime at this scale —
  // exactly the paper's point).
  core::DnorReconfigurer dnor(device, charger);
  core::InorReconfigurer inor(device, charger);
  auto baseline = core::FixedBaselineReconfigurer::square_grid(trace.num_modules());

  std::vector<sim::SimulationResult> runs;
  runs.push_back(sim::run_simulation(dnor, trace));
  runs.push_back(sim::run_simulation(inor, trace));
  runs.push_back(sim::run_simulation(baseline, trace));

  util::TextTable table(
      {"scheme", "energy (J)", "overhead (J)", "switches", "P/Pideal"});
  for (const auto& r : runs) {
    table.begin_row()
        .add(r.algorithm)
        .add(r.energy_output_j, 1)
        .add(r.switch_overhead_j, 2)
        .add(static_cast<long long>(r.num_switch_events))
        .add(r.ratio_to_ideal(), 3);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("DNOR vs hardwired grid at N=400: %+.1f%% energy\n",
              100.0 * (runs[0].energy_output_j / runs[2].energy_output_j - 1.0));
  return 0;
}
