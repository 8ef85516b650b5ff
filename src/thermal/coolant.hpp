// Fluid property models for the radiator heat-exchanger calculation.
//
// The hot stream is a 50/50 ethylene-glycol/water mix circulating through
// the radiator tubes; the cold stream is ambient air pushed through the fin
// stack by ram pressure and the cooling fan.  Capacity rates C = m_dot * cp
// feed the effectiveness-NTU model (thermal/heat_exchanger.hpp).
#pragma once

namespace tegrec::thermal {

/// Thermophysical constants of a coolant/air stream.
struct FluidProperties {
  double density_kg_m3 = 0.0;         ///< mass density
  double specific_heat_j_kgk = 0.0;   ///< isobaric specific heat

  /// Capacity rate C = rho * V_dot * cp for a volumetric flow in m^3/s.
  double capacity_rate_w_k(double volumetric_flow_m3_s) const;
};

/// 50/50 ethylene-glycol/water at typical operating temperature (~90 C).
FluidProperties coolant_glycol50();

/// Ambient air at ~25 C, 1 atm.
FluidProperties ambient_air();

/// Converts litres-per-minute (the unit of the paper's Recordall flow
/// meter) to m^3/s.
double lpm_to_m3s(double lpm);

}  // namespace tegrec::thermal
