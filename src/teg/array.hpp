// The reconfigurable TEG array: device parameters bound to a per-module
// temperature distribution.
//
// TegArray holds one Module per position; teg::ArrayEvaluator turns it
// into the port model of any ArrayConfig.  It also provides P_ideal (all
// modules at their own MPP), the normaliser of the paper's Fig. 7.
#pragma once

#include <vector>

#include "teg/module.hpp"

namespace tegrec::teg {

class TegArray {
 public:
  /// `delta_t_k[i]` is module i's face temperature difference; `ambient_c`
  /// the cold-side (heatsink) temperature used for resistance derating.
  TegArray(const DeviceParams& params, std::vector<double> delta_t_k,
           double ambient_c = 25.0);

  std::size_t size() const { return delta_t_k_.size(); }
  const DeviceParams& device() const { return params_; }
  const std::vector<double>& delta_t_k() const { return delta_t_k_; }
  double ambient_c() const { return ambient_c_; }

  /// Updates the temperature distribution (array geometry unchanged).
  void set_delta_t(std::vector<double> delta_t_k, double ambient_c);

  const Module& module(std::size_t i) const;

  /// Sum of per-module MPPs: the P_ideal upper bound (Fig. 7 normaliser).
  double ideal_power_w() const;

  /// Per-module MPP currents (input of Algorithm 1).
  std::vector<double> module_mpp_currents() const;

 private:
  DeviceParams params_;
  std::vector<double> delta_t_k_;
  double ambient_c_ = 25.0;
  std::vector<Module> modules_;

  void rebuild_modules();
};

}  // namespace tegrec::teg
