#include "power/mppt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tegrec::power {

namespace {

// Relative headroom of OutputPowerBound: orders of magnitude above the
// rounding error of the converter model and the port arithmetic.
constexpr double kBoundHeadroom = 1e-9;

// g(p) = p^2 / (p + P_fix), written as p / (1 + P_fix / p): each rounding
// step is then monotone in p, so the computed g never falls as p rises.
double loaded_power(double p, double fixed_loss_w) {
  return p <= 0.0 ? 0.0 : p / (1.0 + fixed_loss_w / p);
}

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
  // Inside the converter window post-converter power is unimodal in I on
  // [0, Isc]: P(I) is concave and eta(V(I)) is smooth.  Outside the window
  // the output is flat at zero, and golden-section cannot see past a flat
  // region: when both first probes land above max_input_v (a long string
  // whose Voc/2 is far above the window) it returns a zero-output point even
  // though currents near Isc reach the window and deliver power.  Every
  // scorer shares this search, and a fix would move decision bits.
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

OutputPowerBound::OutputPowerBound(const Converter& converter, double floor_w) {
  const ConverterParams& c = converter.params();
  eta_peak_ = c.eta_peak;
  fixed_loss_w_ = c.fixed_loss_w;
  max_input_power_w_ = c.max_input_power_w;
  lo_v_ = c.min_input_v;
  hi_v_ = c.max_input_v;
  // Efficiency an output above the floor needs, lowered by the headroom; a
  // non-positive (or NaN) floor needs only eta > 0.
  const double need =
      floor_w > 0.0 ? floor_w / loaded_power(max_input_power_w_, fixed_loss_w_) *
                          (1.0 - kBoundHeadroom)
                    : 0.0;
  const double slack = eta_peak_ - need;
  if (!(slack > 0.0)) {
    empty_ = true;
    return;
  }
  if (c.voltage_penalty > 0.0) {
    const double w = std::sqrt(slack / c.voltage_penalty) * (1.0 + kBoundHeadroom);
    const double vout = c.output_voltage_v;
    lo_v_ = std::max(lo_v_, vout * std::exp(-w) * (1.0 - kBoundHeadroom));
    hi_v_ = std::min(hi_v_, vout * std::exp(w) * (1.0 + kBoundHeadroom));
  }
  empty_ = lo_v_ > hi_v_;
}

double OutputPowerBound::capped(double power_w) const {
  return eta_peak_ *
         loaded_power(std::min(power_w, max_input_power_w_), fixed_loss_w_) *
         (1.0 + kBoundHeadroom);
}

double OutputPowerBound::at(double voc_v, double r_ohm) const {
  if (empty_) return 0.0;
  const double v = std::clamp(0.5 * voc_v, lo_v_, hi_v_);
  return capped(v * std::max(voc_v - v, 0.0) / r_ohm);
}

double OutputPowerBound::at_spread(double k_v, double r0_ohm,
                                   double c_v2) const {
  if (empty_) return 0.0;
  const double v = std::clamp((k_v * k_v + c_v2) / (2.0 * k_v), lo_v_, hi_v_);
  const double a = k_v - v;
  const double s = std::sqrt(a * a + c_v2);
  // a + s without cancellation when the window pushes V above K.
  const double lift = a >= 0.0 || std::isinf(c_v2) ? a + s : c_v2 / (s - a);
  return capped(v * lift / (2.0 * r0_ohm));
}

}  // namespace tegrec::power
