#include "power/mppt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tegrec::power {

namespace {

OperatingPoint evaluate(const teg::LinearSource& port,
                        const Converter& converter, double current_a) {
  OperatingPoint pt;
  pt.current_a = current_a;
  pt.voltage_v = port.voltage_at_current(current_a);
  pt.array_power_w = std::max(0.0, pt.voltage_v * current_a);
  pt.output_power_w = converter.output_power_w(pt.voltage_v, pt.array_power_w);
  return pt;
}

}  // namespace

OperatingPoint optimal_operating_point(const teg::LinearSource& port,
                                       const Converter& converter, double tol_a) {
  if (tol_a <= 0.0) throw std::invalid_argument("optimal_operating_point: tol <= 0");
  const double isc = port.voc_v / port.r_ohm;
  double lo = 0.0;
  double hi = isc;
  // Post-converter power is unimodal in I on [0, Isc]: P(I) is concave and
  // eta(V(I)) is smooth; golden-section is robust to the flat zero regions
  // outside the converter window.
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double x1 = hi - phi * (hi - lo);
  double x2 = lo + phi * (hi - lo);
  double f1 = evaluate(port, converter, x1).output_power_w;
  double f2 = evaluate(port, converter, x2).output_power_w;
  while (hi - lo > tol_a) {
    if (f1 < f2) {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + phi * (hi - lo);
      f2 = evaluate(port, converter, x2).output_power_w;
    } else {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - phi * (hi - lo);
      f1 = evaluate(port, converter, x1).output_power_w;
    }
  }
  return evaluate(port, converter, 0.5 * (lo + hi));
}

PerturbObserveTracker::PerturbObserveTracker(double step_a) : step_a_(step_a) {
  if (step_a <= 0.0) throw std::invalid_argument("PerturbObserveTracker: step <= 0");
}

void PerturbObserveTracker::reset(double current_a) {
  current_a_ = std::max(0.0, current_a);
  prev_power_w_ = 0.0;
  direction_ = 1.0;
  primed_ = false;
}

OperatingPoint PerturbObserveTracker::step(const teg::LinearSource& port,
                                           const Converter& converter) {
  const OperatingPoint now = evaluate(port, converter, current_a_);
  if (now.output_power_w <= 0.0) {
    // Converter dropout: the P&O power signal is flat at zero, so steer by
    // voltage instead.  Below the window (string loaded too hard) reduce
    // the current; above it (string nearly open) increase it.
    direction_ = now.voltage_v < converter.params().output_voltage_v ? -1.0 : 1.0;
    primed_ = false;  // re-prime once power reappears
  } else if (!primed_) {
    primed_ = true;
  } else if (now.output_power_w < prev_power_w_) {
    direction_ = -direction_;  // walked past the peak: turn around
  }
  prev_power_w_ = now.output_power_w;
  const double isc = port.voc_v / port.r_ohm;
  current_a_ = std::clamp(current_a_ + direction_ * step_a_, 0.0, isc);
  return now;
}

OperatingPoint PerturbObserveTracker::run(const teg::LinearSource& port,
                                          const Converter& converter,
                                          std::size_t iters) {
  OperatingPoint pt;
  for (std::size_t k = 0; k < iters; ++k) pt = step(port, converter);
  return pt;
}

}  // namespace tegrec::power
