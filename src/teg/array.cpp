#include "teg/array.hpp"

#include <stdexcept>

namespace tegrec::teg {

void module_ports(const DeviceParams& params, std::span<const double> delta_t_k,
                  double ambient_c, std::vector<LinearSource>& ports) {
  validate(params);
  if (delta_t_k.empty()) throw std::invalid_argument("TegArray: empty array");
  ports.resize(delta_t_k.size());
  for (std::size_t i = 0; i < delta_t_k.size(); ++i) {
    const double dt = delta_t_k[i];
    if (dt < 0.0) throw std::invalid_argument("TegArray: negative dT");
    ports[i] = module_port(params, ambient_c + dt, ambient_c);
  }
}

TegArray::TegArray(const DeviceParams& params,
                   const std::vector<double>& delta_t_k, double ambient_c) {
  module_ports(params, delta_t_k, ambient_c, ports_);
}

double TegArray::ideal_power_w() const {
  double total = 0.0;
  for (const LinearSource& m : ports_) total += m.mpp_power_w();
  return total;
}

std::vector<double> TegArray::module_mpp_currents() const {
  std::vector<double> out;
  out.reserve(ports_.size());
  for (const LinearSource& m : ports_) out.push_back(m.mpp_current_a());
  return out;
}

}  // namespace tegrec::teg
