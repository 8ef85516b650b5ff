#include "teg/array.hpp"

#include <stdexcept>

namespace tegrec::teg {

TegArray::TegArray(const DeviceParams& params, std::vector<double> delta_t_k,
                   double ambient_c)
    : params_(params), delta_t_k_(std::move(delta_t_k)), ambient_c_(ambient_c) {
  validate(params_);
  if (delta_t_k_.empty()) throw std::invalid_argument("TegArray: empty array");
  rebuild_modules();
}

void TegArray::set_delta_t(std::vector<double> delta_t_k, double ambient_c) {
  if (delta_t_k.size() != delta_t_k_.size()) {
    throw std::invalid_argument("TegArray::set_delta_t: size change not allowed");
  }
  delta_t_k_ = std::move(delta_t_k);
  ambient_c_ = ambient_c;
  rebuild_modules();
}

void TegArray::rebuild_modules() {
  modules_.clear();
  modules_.reserve(delta_t_k_.size());
  for (double dt : delta_t_k_) {
    if (dt < 0.0) throw std::invalid_argument("TegArray: negative dT");
    modules_.push_back(Module::from_delta_t(params_, dt, ambient_c_));
  }
}

const Module& TegArray::module(std::size_t i) const {
  if (i >= modules_.size()) throw std::out_of_range("TegArray::module");
  return modules_[i];
}

double TegArray::ideal_power_w() const {
  double total = 0.0;
  for (const Module& m : modules_) total += m.port().mpp_power_w();
  return total;
}

std::vector<double> TegArray::module_mpp_currents() const {
  std::vector<double> out;
  out.reserve(modules_.size());
  for (const Module& m : modules_) out.push_back(m.port().mpp_current_a());
  return out;
}

}  // namespace tegrec::teg
