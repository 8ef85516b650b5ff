// The reconfigurable TEG array: device parameters bound to a per-module
// temperature distribution, reduced to each module's port.
//
// module_ports() is the one dT -> ports path: it validates the device once
// and writes each module's port into a caller-owned buffer, which the
// controllers and the stepper reuse every step.  TegArray is an owned
// snapshot of the same ports for one-shot callers (the bank, benches,
// examples, tests); it is a contiguous range of LinearSource, so it
// converts to the std::span<const LinearSource> every search, the window
// helper and teg::ArrayEvaluator take.  TegArray also provides P_ideal
// (all modules at their own MPP), the normaliser of the paper's Fig. 7.
#pragma once

#include <span>
#include <vector>

#include "teg/module.hpp"

namespace tegrec::teg {

/// Ports of modules at face temperature differences `delta_t_k` over a
/// heatsink at `ambient_c`, bit-identical to Module::from_delta_t(params,
/// delta_t_k[i], ambient_c).port(): hot = ambient + dT, Voc from hot -
/// ambient and R at the mean face temperature.  Resizes `ports` in place
/// (its capacity is reused).  Throws std::invalid_argument, checking in
/// this order: a bad device, an empty array, then per module in order a
/// negative dT or a dT beyond the device's validity range.
void module_ports(const DeviceParams& params, std::span<const double> delta_t_k,
                  double ambient_c, std::vector<LinearSource>& ports);

class TegArray {
 public:
  /// `delta_t_k[i]` is module i's face temperature difference; `ambient_c`
  /// the cold-side (heatsink) temperature used for resistance derating.
  /// Built by module_ports, whose exceptions it throws.
  TegArray(const DeviceParams& params, const std::vector<double>& delta_t_k,
           double ambient_c = 25.0);

  std::size_t size() const { return ports_.size(); }
  /// The module ports in position order.
  std::vector<LinearSource>::const_iterator begin() const {
    return ports_.begin();
  }
  std::vector<LinearSource>::const_iterator end() const { return ports_.end(); }

  /// Sum of per-module MPPs: the P_ideal upper bound (Fig. 7 normaliser).
  double ideal_power_w() const;

  /// Per-module MPP currents (input of Algorithm 1).
  std::vector<double> module_mpp_currents() const;

 private:
  std::vector<LinearSource> ports_;
};

}  // namespace tegrec::teg
