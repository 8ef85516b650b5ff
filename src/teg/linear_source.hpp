// Thevenin port model V(I) = voc_v - I * r_ohm: the library's one
// two-terminal source type.
//
// A module, a parallel group, a series string of groups and a bank of
// strings in parallel are all linear sources (paper Figs. 3-4), so one
// value type with a closed-form MPP covers every port:
//
//   IMPP = Voc / (2R)   VMPP = Voc / 2   PMPP = Voc^2 / (4R)
//
// Sources combine with two sums:
//   in_parallel (Norton):   1/R = sum 1/R_i,   Voc = R * sum (Voc_i / R_i)
//   in_series (Thevenin):   Voc = sum Voc_i,   R   = sum R_i
//
// When parallel members' Voc/R ratios differ, the cooler members run past
// their own MPP (or absorb current) and the combination's MPP falls below
// the sum of member MPPs — the mismatch loss of Fig. 3 that
// reconfiguration minimises.  teg::ArrayEvaluator computes the same sums
// over contiguous groups from prefix sums (the hot path).
#pragma once

#include <span>

namespace tegrec::teg {

struct LinearSource {
  double voc_v = 0.0;
  double r_ohm = 0.0;

  /// Terminal voltage at a drawn current (negative past short circuit).
  double voltage_at_current(double current_a) const {
    return voc_v - current_a * r_ohm;
  }
  /// Current delivered into a terminal voltage; negative means back-fed.
  double current_at_voltage(double voltage_v) const {
    return (voc_v - voltage_v) / r_ohm;
  }
  double power_at_voltage(double voltage_v) const {
    return voltage_v * current_at_voltage(voltage_v);
  }

  double mpp_current_a() const { return voc_v / (2.0 * r_ohm); }
  double mpp_voltage_v() const { return voc_v / 2.0; }
  double mpp_power_w() const { return voc_v * voc_v / (4.0 * r_ohm); }
};

/// Sources sharing one terminal voltage.  Accumulates 1/r and voc/r in
/// member order, then r = 1/g and voc = norton * r.  Throws
/// std::invalid_argument on an empty span.
LinearSource in_parallel(std::span<const LinearSource> members);

/// Sources carrying one current; voc and r summed in member order.
/// Throws std::invalid_argument on an empty span.
LinearSource in_series(std::span<const LinearSource> members);

}  // namespace tegrec::teg
