// TEG device (datasheet-level) parameters.
//
// The paper instruments the radiator with Kryotherm TGM-199-1.4-0.8
// bismuth-telluride modules and models each one with Eq. (2):
//
//   E_teg = alpha * dT * N_cpl          (open-circuit EMF)
//   I_teg = E_teg / (R_teg + R_load)
//   P_teg = I_teg^2 * R_load
//
// i.e. a Thevenin source whose EMF is linear in the face temperature
// difference.  We add a mild linear temperature dependence of the internal
// resistance (Bi2Te3 resistivity grows with temperature), which bends the
// P-V peaks slightly as in the published Fig. 1 family of curves.
#pragma once

#include <algorithm>

namespace tegrec::teg {

/// Datasheet constants of one TEG module.
struct DeviceParams {
  int num_couples = 199;                ///< N_cpl thermocouples in series
  double seebeck_v_k_couple = 4.2e-4;   ///< alpha per couple [V/K]
  double internal_resistance_ohm = 1.6; ///< R_teg at reference temperature
  double resistance_temp_coeff = 0.004; ///< dR/R per K of mean temperature
  double reference_temp_c = 25.0;       ///< temperature of the R rating
  double max_delta_t_k = 200.0;         ///< validity bound of the linear model

  /// Total module Seebeck coefficient alpha * N_cpl [V/K].
  double seebeck_total_v_k() const {
    return seebeck_v_k_couple * static_cast<double>(num_couples);
  }
  /// Internal resistance at a given module mean temperature [ohm].
  double resistance_at(double mean_temp_c) const {
    const double factor =
        1.0 + resistance_temp_coeff * (mean_temp_c - reference_temp_c);
    // Resistance cannot drop below a small fraction of the rating even at
    // very low temperatures; clamp keeps the model sane outside the fit
    // range.
    return internal_resistance_ohm * std::max(factor, 0.25);
  }
};

/// Parameters of the TGM-199-1.4-0.8 used throughout the paper.
DeviceParams tgm_199_1_4_0_8();

/// Validates physical plausibility; throws std::invalid_argument otherwise.
void validate(const DeviceParams& params);

}  // namespace tegrec::teg
