#include "teg/module.hpp"

#include <stdexcept>

namespace tegrec::teg {

Module::Module(const DeviceParams& params, double hot_side_c, double cold_side_c) {
  validate(params);
  port_ = module_port(params, hot_side_c, cold_side_c);
  delta_t_k_ = hot_side_c - cold_side_c;
}

Module Module::from_delta_t(const DeviceParams& params, double delta_t_k,
                            double cold_side_c) {
  return Module(params, cold_side_c + delta_t_k, cold_side_c);
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
