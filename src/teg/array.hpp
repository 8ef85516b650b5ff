// The reconfigurable TEG array: device parameters bound to a per-module
// temperature distribution.
//
// module_ports() is the one dT -> ports path: it validates the device once
// and writes each module's port into a caller-owned buffer, which the
// controllers and the stepper reuse every step.  TegArray holds one Module
// per position for callers that want the module objects (tests, benches,
// the one-shot searches); teg::ArrayEvaluator turns either into the port
// model of any ArrayConfig.  TegArray also provides P_ideal (all modules
// at their own MPP), the normaliser of the paper's Fig. 7.
#pragma once

#include <span>
#include <vector>

#include "teg/module.hpp"

namespace tegrec::teg {

/// Ports of modules at face temperature differences `delta_t_k` over a
/// heatsink at `ambient_c`, bit-identical to TegArray(params, delta_t_k,
/// ambient_c).module(i).port(): hot = ambient + dT, Voc from hot - ambient
/// and R at the mean face temperature.  Resizes `ports` in place (its
/// capacity is reused) and throws the exceptions TegArray's constructor
/// throws, in the same order: a bad device, an empty array, a negative dT,
/// then a dT beyond the device's validity range.
void module_ports(const DeviceParams& params, std::span<const double> delta_t_k,
                  double ambient_c, std::vector<LinearSource>& ports);

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
