#include "power/battery.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tegrec::power {

Battery::Battery(const BatteryParams& params)
    : params_(params), soc_(params.initial_soc) {
  if (params_.capacity_ah <= 0.0) {
    throw std::invalid_argument("Battery: capacity <= 0");
  }
  if (params_.initial_soc < 0.0 || params_.initial_soc > 1.0) {
    throw std::invalid_argument("Battery: SOC out of [0,1]");
  }
  if (params_.max_charge_current_a <= 0.0) {
    throw std::invalid_argument("Battery: charge limit <= 0");
  }
}

double Battery::absorb(double power_w, double dt_s) {
  if (dt_s <= 0.0) throw std::invalid_argument("Battery::absorb: dt <= 0");
  if (power_w < 0.0) throw std::invalid_argument("Battery::absorb: power < 0");
  if (soc_ >= 1.0) return 0.0;

  const double max_power =
      params_.charge_voltage_v * params_.max_charge_current_a;
  double accepted_w = std::min(power_w, max_power);

  // Coulomb counting at the charge rail.
  const double current_a = accepted_w / params_.charge_voltage_v;
  const double delta_ah = current_a * dt_s / 3600.0;
  const double headroom_ah = (1.0 - soc_) * params_.capacity_ah;
  if (delta_ah > headroom_ah) {
    const double scale = headroom_ah / delta_ah;
    accepted_w *= scale;
    soc_ = 1.0;
  } else {
    soc_ += delta_ah / params_.capacity_ah;
  }
  energy_j_ += accepted_w * dt_s;
  return accepted_w;
}

void Battery::restore_state(double soc, double energy_absorbed_j) {
  if (!std::isfinite(soc) || soc < 0.0 || soc > 1.0) {
    throw std::invalid_argument("Battery::restore_state: SOC out of [0,1]");
  }
  if (!std::isfinite(energy_absorbed_j) || energy_absorbed_j < 0.0) {
    throw std::invalid_argument("Battery::restore_state: negative energy");
  }
  soc_ = soc;
  energy_j_ = energy_absorbed_j;
}

}  // namespace tegrec::power
