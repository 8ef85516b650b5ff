// Reproduces Fig. 1: I-V (a) and P-V (b) output characteristics of the
// TGM-199-1.4-0.8 module for a family of face temperature differences,
// with the maximum power point marked on each curve.
//
// The paper plots the curves for the dT range a vehicle radiator produces;
// the reproduction prints the same sweeps as aligned columns (one block
// per dT) and a summary table of the MPPs.  Shape checks: I-V lines with
// slope -1/R, P-V parabolas peaking at Voc/2, MPP power growing roughly
// quadratically in dT.
#include <cstdio>

#include "teg/module.hpp"
#include "util/table.hpp"

int main() {
  using namespace tegrec;

  const teg::DeviceParams device = teg::tgm_199_1_4_0_8();
  const double delta_ts[] = {10.0, 20.0, 30.0, 40.0, 50.0};

  std::printf("=== Fig. 1: TGM-199-1.4-0.8 output characteristics ===\n\n");
  std::printf("device: %d couples, alpha=%.4f V/K, R=%.2f ohm @ %.0f C\n\n",
              device.num_couples, device.seebeck_total_v_k(),
              device.internal_resistance_ohm, device.reference_temp_c);

  // (a)+(b): sampled I-V / P-V sweeps.
  for (double dt : delta_ts) {
    const teg::Module module = teg::Module::from_delta_t(device, dt);
    std::printf("-- dT = %.0f K  (Voc=%.3f V, R=%.3f ohm) --\n", dt,
                module.port().voc_v, module.port().r_ohm);
    util::TextTable table({"V (V)", "I (A)", "P (W)"});
    for (const teg::IvPoint& pt : module.iv_sweep(11)) {
      table.begin_row().add(pt.voltage_v, 3).add(pt.current_a, 3).add(pt.power_w, 3);
    }
    std::printf("%s\n", table.render().c_str());
  }

  // MPP summary (the black dots of Fig. 1).
  std::printf("-- maximum power points --\n");
  util::TextTable mpp({"dT (K)", "VMPP (V)", "IMPP (A)", "PMPP (W)"});
  for (double dt : delta_ts) {
    const teg::LinearSource port = teg::Module::from_delta_t(device, dt).port();
    mpp.begin_row()
        .add(dt, 0)
        .add(port.mpp_voltage_v(), 3)
        .add(port.mpp_current_a(), 3)
        .add(port.mpp_power_w(), 3);
  }
  std::printf("%s\n", mpp.render().c_str());
  std::printf("shape check: PMPP(2x dT) / PMPP(dT) ~ 4 (quadratic, minus R(T) derating)\n");
  const double p20 = teg::Module::from_delta_t(device, 20.0).port().mpp_power_w();
  const double p40 = teg::Module::from_delta_t(device, 40.0).port().mpp_power_w();
  std::printf("  measured: %.2fx\n", p40 / p20);
  return 0;
}
