// Maximum-power-point tracking for the array charger.
//
// The paper's charger runs perturb-and-observe MPPT (Femia et al. [10])
// on the overall string current after each reconfiguration.  The string
// is one linear source (teg::LinearSource) with a strictly concave P(I),
// so P&O settles in a neighbourhood of the optimum whose size is the
// perturbation step.  The simulator models that settled tracker:
// optimal_operating_point is a golden-section search on the
// post-converter power.  The ideal-charger MPP is the port's own closed
// form (LinearSource::mpp_*).
//
// OutputPowerBound is the certificate the candidate searches (INOR, warm
// EHTR) use to skip a candidate without running the golden section.
#pragma once

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

/// Certified upper bound on the converter output of a port, for a search
/// that only cares about candidates beating an incumbent score `floor_w`.
///
/// The converter output factors as e(V) * g(Pc), with e(V) =
/// clamp(eta_peak - k_v ln^2(V/Vout), 0, eta_peak) inside the input window
/// (0 outside), Pc = min(P, P_cap) and g(p) = p^2 / (p + P_fix), which rises
/// with p.  An output above floor_w > 0 therefore needs e(V) > floor_w /
/// g(P_cap), which confines V to |ln(V/Vout)| < sqrt((eta_peak - floor_w /
/// g(P_cap)) / k_v), intersected with [min_input_v, max_input_v].  On that
/// window a port (voc, r) delivers at most max_V V (voc - V) / r, reached at
/// voc/2 clamped into the window (the parabola is concave), so the output is
/// at most eta_peak * g(min(P_cap, that power)).
///
/// Built once per incumbent, queried in O(1) per candidate port.  The
/// window is widened and the bound raised by 1e-9 relative, far above the
/// rounding of the golden section's own arithmetic, so at() is at least
/// every output optimal_operating_point can return that reaches floor_w
/// (the efficiency an output equal to a positive floor needs lies above
/// the lowered requirement, so it sits inside the window too).  A port
/// whose at() is strictly below floor_w therefore scores below it.
/// at() rises with voc and falls with r (also after rounding), so a relaxed
/// port with a larger voc and a smaller r bounds every port it dominates.
/// A NaN port gives a NaN bound, which compares false and never prunes,
/// unless no port at all can exceed the floor: then at() is 0.  Relies on
/// the Converter's validated ranges (P_fix >= 0, k_v >= 0, all finite).
///
/// at_spread() bounds every split of a module set into n groups at once
/// (contiguous or not).  Take g_i = 1/r_i, G = sum g_i, the weighted mean
/// vbar = sum g_i voc_i / G and spread W = sum g_i (voc_i - vbar)^2.  A
/// split with group conductances G_j and vocs V_j has string voc = sum V_j
/// and r = sum 1/G_j >= R0 = n^2 / G, and since sum G_j (V_j - vbar) = 0,
/// voc - n vbar = (n/G) sum (V_j - vbar)(G/n - G_j).  Cauchy-Schwarz, with
/// sum (G/n - G_j)^2 / G_j = (G/n)^2 (r - R0), bounds that by
/// sqrt(sum G_j (V_j - vbar)^2) sqrt(r - R0); the between-group sum is at
/// most W, so voc <= K + sqrt(W (r - R0)) with K = n vbar.  Maximising
/// V (voc - V) / r over r >= R0 gives, with c = W R0,
///   Phi(V) = V (K - V + sqrt((K - V)^2 + c)) / (2 R0),
/// whose single peak is at V* = (K^2 + c) / (2K); at_spread() is at()'s
/// value with Phi at V* clamped into the window in place of the parabola.
/// It rises with K and c and falls with R0.  A NaN input or K = c = 0 gives
/// NaN, which never prunes; c = inf gives eta_peak g(P_cap).
class OutputPowerBound {
 public:
  OutputPowerBound(const Converter& converter, double floor_w);

  double at(double voc_v, double r_ohm) const;
  double at_spread(double k_v, double r0_ohm, double c_v2) const;

 private:
  double capped(double power_w) const;

  double eta_peak_;
  double fixed_loss_w_;
  double max_input_power_w_;
  double lo_v_;  ///< input-voltage window an output above the floor needs
  double hi_v_;
  bool empty_ = false;  ///< no operating point can exceed the floor
};

}  // namespace tegrec::power
