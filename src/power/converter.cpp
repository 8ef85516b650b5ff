#include "power/converter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tegrec::power {

Converter::Converter(const ConverterParams& params) : params_(params) {
  // Every check is written so that NaN fails it.  The ranges are what the
  // certified output-power bound (power/mppt.hpp) relies on: the light-load
  // factor p / (p + P_fix) must stay at most 1 and eta at most eta_peak.
  if (!(std::isfinite(params_.output_voltage_v) && params_.output_voltage_v > 0.0)) {
    throw std::invalid_argument("Converter: output voltage not finite and > 0");
  }
  if (!(params_.eta_peak > 0.0 && params_.eta_peak <= 1.0)) {
    throw std::invalid_argument("Converter: eta_peak out of (0,1]");
  }
  if (!(std::isfinite(params_.voltage_penalty) && params_.voltage_penalty >= 0.0)) {
    throw std::invalid_argument("Converter: voltage penalty not finite and >= 0");
  }
  if (!(std::isfinite(params_.fixed_loss_w) && params_.fixed_loss_w >= 0.0)) {
    throw std::invalid_argument("Converter: fixed loss not finite and >= 0");
  }
  if (!(std::isfinite(params_.min_input_v) && std::isfinite(params_.max_input_v) &&
        params_.min_input_v > 0.0 && params_.max_input_v > params_.min_input_v)) {
    throw std::invalid_argument("Converter: bad input window");
  }
  if (!(std::isfinite(params_.max_input_power_w) &&
        params_.max_input_power_w > 0.0)) {
    throw std::invalid_argument("Converter: max input power not finite and > 0");
  }
}

bool Converter::input_in_range(double vin_v) const {
  return vin_v >= params_.min_input_v && vin_v <= params_.max_input_v;
}

double Converter::efficiency(double vin_v, double pin_w) const {
  if (!input_in_range(vin_v) || pin_w <= 0.0) return 0.0;
  const double lr = std::log(vin_v / params_.output_voltage_v);
  double eta = params_.eta_peak - params_.voltage_penalty * lr * lr;
  eta = std::clamp(eta, 0.0, params_.eta_peak);
  // Light-load derating from the fixed loss floor.
  eta *= pin_w / (pin_w + params_.fixed_loss_w);
  return eta;
}

double Converter::output_power_w(double vin_v, double pin_w) const {
  const double pin = std::min(pin_w, params_.max_input_power_w);
  return efficiency(vin_v, pin) * pin;
}

Converter::GroupRange Converter::efficient_group_range(
    double group_vmpp_v, std::size_t max_groups, double width_factor) const {
  GroupRange range;
  // A NaN voltage (a NaN module anywhere in the mean) would survive the
  // clamps below and reach the size_t cast, which is undefined for NaN.
  if (!std::isfinite(group_vmpp_v) || group_vmpp_v <= 0.0 || max_groups == 0) {
    return range;
  }
  const double lo = std::max(params_.output_voltage_v / width_factor,
                             params_.min_input_v);
  const double hi = std::min(params_.output_voltage_v * width_factor,
                             params_.max_input_v);
  auto clamp_groups = [max_groups](double x) {
    const double r = std::clamp(x, 1.0, static_cast<double>(max_groups));
    return static_cast<std::size_t>(r);
  };
  range.nmin = clamp_groups(std::ceil(lo / group_vmpp_v));
  range.nmax = clamp_groups(std::floor(hi / group_vmpp_v));
  if (range.nmax < range.nmin) range.nmax = range.nmin;
  return range;
}

}  // namespace tegrec::power
