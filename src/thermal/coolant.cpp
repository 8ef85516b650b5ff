#include "thermal/coolant.hpp"

namespace tegrec::thermal {

double FluidProperties::capacity_rate_w_k(double volumetric_flow_m3_s) const {
  return density_kg_m3 * volumetric_flow_m3_s * specific_heat_j_kgk;
}

FluidProperties coolant_glycol50() {
  // 50/50 EG/water near 90 C: rho ~= 1036 kg/m^3, cp ~= 3620 J/(kg K).
  return FluidProperties{1036.0, 3620.0};
}

FluidProperties ambient_air() {
  // Dry air at ~25 C, sea level: rho ~= 1.184 kg/m^3, cp ~= 1006 J/(kg K).
  return FluidProperties{1.184, 1006.0};
}

double lpm_to_m3s(double lpm) { return lpm / 1000.0 / 60.0; }

}  // namespace tegrec::thermal
