// Reproduces Table I: 800 s totals — energy output, switch overhead and
// average runtime — for DNOR, INOR, EHTR and the fixed 10 x 10 baseline.
//
// Paper reference values (measured Hyundai Porter II trace, authors'
// testbed):
//            DNOR      INOR      EHTR      Baseline
//   Energy   43309.6   41375.6   41067.1   33543.4   (J)
//   Overhead    21.7    2034.7    2160.3      /       (J)
//   Runtime      2.6       4.1      37.2      /       (ms)
//
// The reproduction preserves the ordering and factors (DNOR ~100x lower
// overhead than INOR/EHTR; EHTR runtime far above INOR/DNOR; DNOR ~+30%
// over the baseline); absolute values differ because both the thermal
// trace and the compute platform are substitutes.  The runtime row is a
// wall-clock timing on this host (timed_reconfigurer.hpp): the simulated
// results themselves hold no measured time.
#include <cstdio>
#include <string>
#include <vector>

#include "core/dnor.hpp"
#include "core/ehtr.hpp"
#include "core/fixed_baseline.hpp"
#include "core/inor.hpp"
#include "sim/experiment.hpp"
#include "sim/results.hpp"
#include "sim/simulator.hpp"
#include "thermal/trace.hpp"
#include "timed_reconfigurer.hpp"
#include "util/table.hpp"

int main() {
  using namespace tegrec;

  std::printf("=== Table I: 800 s performance and runtime comparison ===\n\n");
  const thermal::TemperatureTrace trace = thermal::default_experiment_trace();
  std::printf("trace: %zu modules, %.0f s at %.1f s/step\n\n",
              trace.num_modules(), trace.duration_s(), trace.dt_s());

  const teg::DeviceParams device = teg::tgm_199_1_4_0_8();
  const power::ConverterParams charger;
  const sim::SimulationOptions options;

  core::DnorReconfigurer dnor(device, charger);
  core::InorReconfigurer inor(device, charger);
  core::EhtrReconfigurer ehtr(device, charger);
  core::FixedBaselineReconfigurer baseline =
      core::FixedBaselineReconfigurer::square_grid(trace.num_modules());

  sim::ComparisonResult comparison;
  std::vector<sim::SimulationResult>& runs = comparison.runs;
  std::vector<double> runtime_ms;
  const std::vector<core::Reconfigurer*> controllers = {&dnor, &inor, &ehtr,
                                                        &baseline};
  for (core::Reconfigurer* controller : controllers) {
    bench::TimedReconfigurer timed(*controller);
    runs.push_back(sim::run_simulation(timed, trace, options));
    runtime_ms.push_back(timed.avg_runtime_ms());
  }

  std::printf("%s\n", sim::render_table1(runs).c_str());

  // Measured on this host, so printed here rather than kept in the results.
  std::vector<std::string> header{"Metric"};
  for (const auto& r : runs) header.push_back(r.algorithm);
  util::TextTable runtime(header);
  runtime.begin_row().add("Average Runtime (ms)");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].num_invocations == 0) {
      runtime.add(std::string("/"));  // baseline: never decides
    } else {
      runtime.add(runtime_ms[i], 3);
    }
  }
  std::printf("%s\n", runtime.render().c_str());

  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  std::printf("DNOR vs baseline energy:   %+.1f%%  (paper: +29.1%%)\n",
              100.0 * comparison.dnor_gain_over_baseline());
  std::printf("EHTR/DNOR switch overhead: %.0fx   (paper: ~100x)\n",
              comparison.overhead_reduction_ratio());
  std::printf("EHTR/DNOR average runtime: %.1fx   (paper: ~14x)\n",
              ratio(runtime_ms[2], runtime_ms[0]));
  std::printf("EHTR/INOR average runtime: %.1fx   (paper: ~9x)\n",
              ratio(runtime_ms[2], runtime_ms[1]));
  return 0;
}
