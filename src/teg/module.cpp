#include "teg/module.hpp"

#include <stdexcept>

namespace tegrec::teg {

Module::Module(const DeviceParams& params, double hot_side_c, double cold_side_c) {
  validate(params);
  if (hot_side_c < cold_side_c) {
    throw std::invalid_argument("Module: hot side below cold side");
  }
  delta_t_k_ = hot_side_c - cold_side_c;
  if (delta_t_k_ > params.max_delta_t_k) {
    throw std::invalid_argument("Module: dT exceeds device validity range");
  }
  port_.voc_v = params.seebeck_total_v_k() * delta_t_k_;
  port_.r_ohm = params.resistance_at(0.5 * (hot_side_c + cold_side_c));
}

Module Module::from_delta_t(const DeviceParams& params, double delta_t_k,
                            double cold_side_c) {
  return Module(params, cold_side_c + delta_t_k, cold_side_c);
}

double Module::power_into_load(double r_load_ohm) const {
  if (r_load_ohm < 0.0) throw std::invalid_argument("power_into_load: R < 0");
  const double i = port_.voc_v / (port_.r_ohm + r_load_ohm);
  return i * i * r_load_ohm;
}

std::vector<IvPoint> Module::iv_sweep(std::size_t points) const {
  if (points < 2) throw std::invalid_argument("iv_sweep: need >= 2 points");
  std::vector<IvPoint> out(points);
  for (std::size_t k = 0; k < points; ++k) {
    const double v =
        port_.voc_v * static_cast<double>(k) / static_cast<double>(points - 1);
    out[k].voltage_v = v;
    out[k].current_a = port_.current_at_voltage(v);
    out[k].power_w = port_.power_at_voltage(v);
  }
  return out;
}

}  // namespace tegrec::teg
