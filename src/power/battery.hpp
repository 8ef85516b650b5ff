// Lead-acid vehicle battery sink.
//
// The harvesting system charges a 12 V lead-acid battery at the 13.8 V
// float rail.  For energy accounting the battery is a constant-voltage
// sink with a charge-acceptance limit and simple coulomb counting; the
// open-circuit voltage tracks state of charge so tests can assert the
// usual 12.0-12.9 V resting window.
#pragma once

namespace tegrec::power {

struct BatteryParams {
  double capacity_ah = 60.0;        ///< rated capacity
  double charge_voltage_v = 13.8;   ///< float/absorption rail
  double max_charge_current_a = 15.0;
  double internal_resistance_ohm = 0.02;
  double initial_soc = 0.7;         ///< state of charge in [0,1]
};

class Battery {
 public:
  explicit Battery(const BatteryParams& params = {});

  double soc() const { return soc_; }
  double charge_voltage_v() const { return params_.charge_voltage_v; }

  /// Offers `power_w` at the charging rail for `dt_s`; returns the power
  /// actually absorbed (clipped by the charge-current limit and by a full
  /// battery).  SOC and the absorbed-energy counter advance accordingly.
  double absorb(double power_w, double dt_s);

  /// Total energy absorbed since construction [J].
  double energy_absorbed_j() const { return energy_j_; }

  /// Reinstates a previously observed (soc, energy_absorbed_j) pair — the
  /// battery's entire mutable state — for checkpoint/restore of streaming
  /// runs.  Restoring the values a live battery reported reproduces its
  /// future absorb() stream bit-identically.  Throws std::invalid_argument
  /// on a SOC outside [0, 1] or a negative/non-finite energy.
  void restore_state(double soc, double energy_absorbed_j);

 private:
  BatteryParams params_;
  double soc_ = 0.7;
  double energy_j_ = 0.0;
};

}  // namespace tegrec::power
