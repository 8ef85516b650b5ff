// Maximum-power-point tracking for the array charger.
//
// The paper's charger runs perturb-and-observe MPPT (Femia et al. [10])
// on the overall string current after each reconfiguration.  The string
// is one linear source (teg::LinearSource) with a strictly concave P(I),
// so P&O converges to a neighbourhood of the optimum whose size is the
// perturbation step.  The ideal-charger MPP is the port's own closed form
// (LinearSource::mpp_*).
//
// Two trackers are provided:
//  * PerturbObserveTracker — the faithful iterative controller;
//  * optimal_operating_point — a golden-section oracle on the
//    post-converter power, used by the simulator (which models a settled
//    tracker) and by tests as the convergence reference.
#pragma once

#include <cstddef>

#include "power/converter.hpp"
#include "teg/linear_source.hpp"

namespace tegrec::power {

/// Result of tracking on one port/converter pair.
struct OperatingPoint {
  double current_a = 0.0;      ///< string current
  double voltage_v = 0.0;      ///< string (converter input) voltage
  double array_power_w = 0.0;  ///< power leaving the array
  double output_power_w = 0.0; ///< power after conversion losses
};

/// Golden-section search for the current maximising post-converter power.
/// The search interval is [0, Isc]; tolerance is on current.
OperatingPoint optimal_operating_point(const teg::LinearSource& port,
                                       const Converter& converter,
                                       double tol_a = 1e-6);

/// Classic fixed-step perturb & observe controller.
class PerturbObserveTracker {
 public:
  /// `step_a` is the current perturbation per iteration.
  explicit PerturbObserveTracker(double step_a = 0.02);

  /// Re-seeds the tracker (e.g. after a reconfiguration) at a current.
  void reset(double current_a);

  /// One P&O iteration against the live port; returns the new point.
  OperatingPoint step(const teg::LinearSource& port, const Converter& converter);

  /// Runs `iters` iterations and returns the final point.
  OperatingPoint run(const teg::LinearSource& port, const Converter& converter,
                     std::size_t iters);

  double current_a() const { return current_a_; }

 private:
  double step_a_;
  double current_a_ = 0.0;
  double prev_power_w_ = 0.0;
  double direction_ = 1.0;
  bool primed_ = false;
};

}  // namespace tegrec::power
