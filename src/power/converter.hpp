// DC-DC charger conversion-efficiency model (LTM4607-class buck-boost).
//
// Section III.B of the paper: the charger converts the array's output
// voltage to the battery's 13.8 V charging voltage, and its efficiency
// falls off as the input voltage deviates from the output voltage — the
// reason the reconfiguration algorithm constrains the group count to
// [nmin, nmax].  We model
//
//   eta(Vin, Pin) = (eta_peak - k_v * ln^2(Vin/Vout)) * Pin / (Pin + P_fix)
//
// clamped to [0, eta_peak], with a hard operating window on Vin taken from
// the LTM4607 datasheet (4.5..36 V).  P_fix captures quiescent/gate losses
// that dominate at light load.
#pragma once

#include <cstddef>

namespace tegrec::power {

struct ConverterParams {
  double output_voltage_v = 13.8;  ///< lead-acid charging rail
  double eta_peak = 0.965;         ///< best-case efficiency at Vin == Vout
  double voltage_penalty = 0.055;  ///< k_v, loss per ln^2(Vin/Vout)
  double fixed_loss_w = 0.35;      ///< quiescent + switching floor
  double min_input_v = 4.5;        ///< datasheet operating window
  double max_input_v = 36.0;
  double max_input_power_w = 400.0;///< thermal limit
};

class Converter {
 public:
  explicit Converter(const ConverterParams& params = {});

  const ConverterParams& params() const { return params_; }

  /// True if the input voltage lies inside the operating window.
  bool input_in_range(double vin_v) const;

  /// Conversion efficiency for an operating point; 0 outside the window
  /// or for non-positive input power.
  double efficiency(double vin_v, double pin_w) const;

  /// Power delivered to the battery rail.
  double output_power_w(double vin_v, double pin_w) const;

  /// Range of group counts n such that a series string of n groups with
  /// per-group MPP voltage ~`group_vmpp_v` lands inside the efficient
  /// window [vout/width_factor, vout*width_factor]: the paper's
  /// [nmin, nmax].  Returns {1, 1} degenerately if the group voltage is
  /// non-positive or non-finite (a dead array, or a NaN module in the
  /// mean), or if max_groups is 0.
  struct GroupRange {
    std::size_t nmin = 1;
    std::size_t nmax = 1;
  };
  GroupRange efficient_group_range(double group_vmpp_v, std::size_t max_groups,
                                   double width_factor = 2.0) const;

 private:
  ConverterParams params_;
};

}  // namespace tegrec::power
