// Device-level explorer: prints I-V/P-V curves, MPP loci and mismatch
// behaviour for user-supplied temperature differences.
//
//   ./build/examples/curve_explorer            (default dT set)
//   ./build/examples/curve_explorer 12 27 41   (custom dT values, K)
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "teg/linear_source.hpp"
#include "teg/module.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace tegrec;

  std::vector<double> dts;
  for (int i = 1; i < argc; ++i) {
    const double dt = std::atof(argv[i]);
    if (dt <= 0.0 || dt > 180.0) {
      std::fprintf(stderr, "dT '%s' out of (0, 180] K\n", argv[i]);
      return 1;
    }
    dts.push_back(dt);
  }
  if (dts.empty()) dts = {15.0, 25.0, 35.0};

  const teg::DeviceParams device = teg::tgm_199_1_4_0_8();
  std::printf("TGM-199-1.4-0.8: %d couples, alpha=%.4f V/K, R0=%.2f ohm\n\n",
              device.num_couples, device.seebeck_total_v_k(),
              device.internal_resistance_ohm);

  // Per-device curves.
  util::TextTable mpp({"dT (K)", "Voc (V)", "R (ohm)", "VMPP (V)", "IMPP (A)",
                       "PMPP (W)"});
  std::vector<teg::LinearSource> modules;
  for (double dt : dts) {
    const teg::LinearSource m = teg::Module::from_delta_t(device, dt).port();
    modules.push_back(m);
    mpp.begin_row()
        .add(dt, 1)
        .add(m.voc_v, 3)
        .add(m.r_ohm, 3)
        .add(m.mpp_voltage_v(), 3)
        .add(m.mpp_current_a(), 3)
        .add(m.mpp_power_w(), 3);
  }
  std::printf("%s\n", mpp.render().c_str());

  if (modules.size() < 2) return 0;

  // What happens if these exact modules share a wire?
  double ideal = 0.0;
  for (const auto& m : modules) ideal += m.mpp_power_w();
  const teg::LinearSource parallel = teg::in_parallel(modules);
  std::vector<teg::LinearSource> singles;  // one-module groups in series
  for (const auto& m : modules) singles.push_back(teg::in_parallel({&m, 1}));
  const teg::LinearSource series = teg::in_series(singles);

  util::TextTable combo({"connection", "P (W)", "vs ideal %"});
  combo.begin_row().add("each at own MPP (ideal)").add(ideal, 3).add(100.0, 1);
  combo.begin_row()
      .add("all parallel")
      .add(parallel.mpp_power_w(), 3)
      .add(100.0 * parallel.mpp_power_w() / ideal, 1);
  combo.begin_row()
      .add("all series")
      .add(series.mpp_power_w(), 3)
      .add(100.0 * series.mpp_power_w() / ideal, 1);
  std::printf("%s\n", combo.render().c_str());
  std::printf("This gap is what TEG array reconfiguration recovers.\n");
  return 0;
}
