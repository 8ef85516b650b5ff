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

#include <stdexcept>
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

  /// Uniform I-V/P-V sweep from V=0 to V=Voc with `points` samples.
  std::vector<IvPoint> iv_sweep(std::size_t points) const;

 private:
  double delta_t_k_ = 0.0;
  LinearSource port_;
};

/// The port Module(params, hot_side_c, cold_side_c) holds, without
/// re-validating `params` (callers validate the device once per array).
/// Throws std::invalid_argument with the constructor's messages.  Inline,
/// with the device model it calls, so module_ports' per-module loop is
/// plain arithmetic.
inline LinearSource module_port(const DeviceParams& params, double hot_side_c,
                                double cold_side_c) {
  if (hot_side_c < cold_side_c) {
    throw std::invalid_argument("Module: hot side below cold side");
  }
  const double delta_t_k = hot_side_c - cold_side_c;
  if (delta_t_k > params.max_delta_t_k) {
    throw std::invalid_argument("Module: dT exceeds device validity range");
  }
  LinearSource port;
  port.voc_v = params.seebeck_total_v_k() * delta_t_k;
  port.r_ohm = params.resistance_at(0.5 * (hot_side_c + cold_side_c));
  return port;
}

}  // namespace tegrec::teg
