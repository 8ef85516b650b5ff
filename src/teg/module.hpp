// Electrical model of a single TEG module at an operating point.
//
// A Module is a value type binding DeviceParams to one (dT, mean
// temperature) operating point.  Its terminals are a linear source
//
//   Voc = alpha_total * dT           V(I) = Voc - I * R(T_mean)
//
// exposed as port(); the module itself keeps the device physics (validity
// checks, Eq. 2's load power) and the I-V / P-V sweeps of the paper's
// Fig. 1.
#pragma once

#include <vector>

#include "teg/device.hpp"
#include "teg/linear_source.hpp"

namespace tegrec::teg {

/// One (V, I, P) sample of a module sweep.
struct IvPoint {
  double voltage_v = 0.0;
  double current_a = 0.0;
  double power_w = 0.0;
};

class Module {
 public:
  /// Builds a module at hot/cold face temperatures (cold face == heatsink ==
  /// ambient per Section II of the paper).
  Module(const DeviceParams& params, double hot_side_c, double cold_side_c);

  /// Convenience: operating point given dT directly, mean temperature
  /// defaulting to cold + dT/2.
  static Module from_delta_t(const DeviceParams& params, double delta_t_k,
                             double cold_side_c = 25.0);

  double delta_t_k() const { return delta_t_k_; }
  /// The module's terminals as a Thevenin source.
  const LinearSource& port() const { return port_; }

  /// Output power into a load resistance (Eq. 2 of the paper).
  double power_into_load(double r_load_ohm) const;

  /// Uniform I-V/P-V sweep from V=0 to V=Voc with `points` samples.
  std::vector<IvPoint> iv_sweep(std::size_t points) const;

 private:
  double delta_t_k_ = 0.0;
  LinearSource port_;
};

}  // namespace tegrec::teg
