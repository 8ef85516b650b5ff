#include "power/mppt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "port_oracle.hpp"
#include "teg/array.hpp"
#include "util/rng.hpp"

namespace tegrec::power {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();

teg::LinearSource make_string(std::size_t n_groups, double dt_hi, double dt_lo) {
  std::vector<double> dts;
  const std::size_t n = n_groups * 5;
  for (std::size_t i = 0; i < n; ++i) {
    dts.push_back(dt_hi +
                  (dt_lo - dt_hi) * static_cast<double>(i) / static_cast<double>(n));
  }
  const teg::TegArray array(kDev, dts);
  return oracle::direct_string_port(array, teg::ArrayConfig::uniform(n, n_groups));
}

TEST(OptimalOperatingPoint, MatchesClosedFormWithIdealConverter) {
  // A converter with no voltage penalty and no fixed loss inside a wide
  // window reduces the search to the raw string MPP.
  ConverterParams p;
  p.voltage_penalty = 0.0;
  p.fixed_loss_w = 0.0;
  p.eta_peak = 1.0;
  p.min_input_v = 0.01;
  p.max_input_v = 1000.0;
  p.max_input_power_w = 1e9;
  const Converter conv(p);
  const teg::LinearSource s = make_string(10, 35.0, 10.0);
  const OperatingPoint pt = optimal_operating_point(s, conv);
  EXPECT_NEAR(pt.current_a, s.mpp_current_a(), 1e-3);
  EXPECT_NEAR(pt.array_power_w, s.mpp_power_w(), 1e-6);
  EXPECT_NEAR(pt.output_power_w, s.mpp_power_w(), 1e-6);
}

TEST(OptimalOperatingPoint, RealConverterShiftsTowardOutputVoltage) {
  // With the voltage-penalty efficiency the optimum moves to a current
  // whose string voltage is closer to 13.8 V than the raw MPP voltage is.
  const Converter conv;
  const teg::LinearSource s = make_string(20, 40.0, 15.0);  // high-voltage string
  const OperatingPoint pt = optimal_operating_point(s, conv);
  const double raw_v = s.mpp_voltage_v();
  const double vout = conv.params().output_voltage_v;
  if (raw_v > vout) {
    EXPECT_LE(std::abs(pt.voltage_v - vout), std::abs(raw_v - vout) + 1e-6);
  }
  EXPECT_LE(pt.output_power_w, pt.array_power_w);
}

TEST(OptimalOperatingPoint, NeverNegative) {
  const Converter conv;
  const teg::LinearSource s = make_string(2, 5.0, 2.0);  // tiny voltages
  const OperatingPoint pt = optimal_operating_point(s, conv);
  EXPECT_GE(pt.output_power_w, 0.0);
  EXPECT_GE(pt.array_power_w, 0.0);
}

TEST(OptimalOperatingPoint, BadToleranceThrows) {
  const Converter conv;
  const teg::LinearSource s = make_string(4, 20.0, 10.0);
  EXPECT_THROW(optimal_operating_point(s, conv, 0.0), std::invalid_argument);
}

// ---- OutputPowerBound: a certified bound on every output above a floor

// The converter output at one string current, computed as the golden
// section computes it.
double output_at(const teg::LinearSource& port, const Converter& conv,
                 double current_a) {
  const double v = port.voltage_at_current(current_a);
  return conv.output_power_w(v, std::max(0.0, v * current_a));
}

double log_uniform(util::Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

// Random converters; `variant` pins the edge cases: no voltage penalty, no
// fixed loss, a tiny and a huge input-power cap.
ConverterParams random_converter(util::Rng& rng, int variant) {
  ConverterParams p;
  p.output_voltage_v = rng.uniform(5.0, 48.0);
  p.eta_peak = rng.uniform(0.5, 1.0);
  p.voltage_penalty = variant == 0 ? 0.0 : log_uniform(rng, 1e-3, 2.0);
  p.fixed_loss_w = variant == 1 ? 0.0 : log_uniform(rng, 1e-3, 5.0);
  p.min_input_v = p.output_voltage_v * rng.uniform(0.1, 0.95);
  p.max_input_v = p.output_voltage_v * rng.uniform(1.05, 4.0);
  p.max_input_power_w = variant == 2   ? 1e-3
                        : variant == 3 ? 1e9
                                       : log_uniform(rng, 5.0, 800.0);
  return p;
}

TEST(OutputPowerBound, CoversEveryOutputAboveTheFloor) {
  util::Rng rng(19);
  std::size_t checked = 0;
  std::size_t tight = 0;  // floors that leave a point above them
  for (int trial = 0; trial < 60; ++trial) {
    const Converter conv(random_converter(rng, trial % 6));
    for (int k = 0; k < 10; ++k) {
      const teg::LinearSource port{log_uniform(rng, 0.5, 400.0),
                                   log_uniform(rng, 0.01, 100.0)};
      std::vector<double> outputs;
      const double isc = port.voc_v / port.r_ohm;
      for (int g = 0; g <= 2000; ++g) {
        outputs.push_back(output_at(port, conv, isc * g / 2000.0));
      }
      outputs.push_back(optimal_operating_point(port, conv).output_power_w);
      const double best = *std::max_element(outputs.begin(), outputs.end());
      for (double floor_w :
           {-1.0, 0.0, 0.1 * best, 0.5 * best, 0.9 * best, 0.99 * best,
            best * (1.0 - 1e-6), best * (1.0 - 1e-12), best}) {
        const double bound = OutputPowerBound(conv, floor_w).at(port.voc_v,
                                                                port.r_ohm);
        bool any_above = false;
        for (double out : outputs) {
          if (!(out > floor_w)) continue;
          any_above = true;
          ++checked;
          ASSERT_GE(bound, out) << "trial " << trial << ", floor " << floor_w
                                << ", voc " << port.voc_v << ", r "
                                << port.r_ohm;
        }
        if (any_above && floor_w > 0.0) ++tight;
      }
    }
  }
  EXPECT_GT(checked, 100000u);
  EXPECT_GT(tight, 1000u);
}

TEST(OutputPowerBound, PrunesAPortThatCannotReachTheFloor) {
  const Converter conv;
  const teg::LinearSource strong{30.0, 1.0};
  const teg::LinearSource weak{30.0, 4.0};
  const double best = optimal_operating_point(strong, conv).output_power_w;
  const OutputPowerBound bound(conv, best);
  EXPECT_LT(bound.at(weak.voc_v, weak.r_ohm), best);
  EXPECT_GE(bound.at(strong.voc_v, strong.r_ohm), best);
  // No port can beat a floor above eta_peak * g(P_cap).
  const ConverterParams& p = conv.params();
  const double cap = p.max_input_power_w;
  const double ceiling = p.eta_peak * cap * cap / (cap + p.fixed_loss_w);
  EXPECT_EQ(OutputPowerBound(conv, 1.001 * ceiling).at(1e6, 1e-6), 0.0);
  // A NaN port is never pruned.
  EXPECT_TRUE(std::isnan(bound.at(std::nan(""), 1.0)));
  EXPECT_TRUE(std::isnan(bound.at(30.0, std::nan(""))));
}

TEST(OutputPowerBound, RisesWithVocAndFallsWithResistance) {
  // Monotone after rounding too: coarse geometric sweeps plus runs of
  // one-ulp steps, for converters and floors of every kind.
  util::Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    const Converter conv(random_converter(rng, trial % 6));
    const double floor_w = trial % 3 == 0 ? -1.0 : log_uniform(rng, 1e-3, 300.0);
    const OutputPowerBound bound(conv, floor_w);
    const double r = log_uniform(rng, 0.01, 100.0);
    double prev = bound.at(0.01, r);
    for (double voc = 0.01; voc < 1000.0; voc *= 1.003) {
      double v = voc;
      for (int u = 0; u < 8; ++u, v = std::nextafter(v, 2.0 * v)) {
        const double b = bound.at(v, r);
        ASSERT_GE(b, prev) << "voc " << v << ", trial " << trial;
        prev = b;
      }
    }
    const double voc = log_uniform(rng, 0.5, 400.0);
    prev = bound.at(voc, 1e-4);
    for (double rr = 1e-4; rr < 1e3; rr *= 1.003) {
      double x = rr;
      for (int u = 0; u < 8; ++u, x = std::nextafter(x, 2.0 * x)) {
        const double b = bound.at(voc, x);
        ASSERT_LE(b, prev) << "r " << x << ", trial " << trial;
        prev = b;
      }
    }
  }
}

TEST(OutputPowerBound, AtSpreadCoversEveryPortOnTheVocBound) {
  // A split with K = n vbar, R0 = n^2 / G and spread W has voc <= K +
  // sqrt(W (r - R0)) at every r >= R0, so at_spread(K, R0, W R0) is at
  // least at() on that whole curve, the maximising r included.  The 1e-12
  // allows for rounding in the port arithmetic at the maximum, where the
  // two are equal.
  util::Rng rng(29);
  std::size_t checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Converter conv(random_converter(rng, trial % 6));
    const double floor_w = trial % 3 == 0 ? 0.0 : log_uniform(rng, 1e-3, 300.0);
    const OutputPowerBound bound(conv, floor_w);
    for (int k = 0; k < 20; ++k) {
      const double k_v = log_uniform(rng, 0.5, 400.0);
      const double r0 = log_uniform(rng, 0.01, 100.0);
      const double w = log_uniform(rng, 1e-6, 1e3) / r0;
      const double b = bound.at_spread(k_v, r0, w * r0);
      ASSERT_GE(b, bound.at(k_v, r0));
      for (double r = r0; r < 1e3 * r0; r *= 1.01) {
        const double voc = k_v + std::sqrt(w * (r - r0));
        ASSERT_GE(b * (1.0 + 1e-12), bound.at(voc, r))
            << "trial " << trial << ", K " << k_v << ", R0 " << r0 << ", W "
            << w << ", r " << r;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 500000u);
}

TEST(OutputPowerBound, AtSpreadEdges) {
  const Converter conv;
  const OutputPowerBound bound(conv, 0.0);
  // No spread: the relaxed parabola, up to rounding at its peak.
  EXPECT_NEAR(bound.at_spread(30.0, 2.0, 0.0), bound.at(30.0, 2.0),
              1e-14 * bound.at(30.0, 2.0));
  // Rises with the spread.
  EXPECT_GT(bound.at_spread(30.0, 2.0, 50.0), bound.at_spread(30.0, 2.0, 5.0));
  // K below the window: the parabola delivers nothing, the spread a little,
  // without cancelling to 0.
  const double low = bound.at_spread(2.0, 1.0, 1e-6);
  EXPECT_GT(low, 0.0);
  EXPECT_EQ(bound.at(2.0, 1.0), 0.0);
  // An infinite spread gives the ceiling; NaN, or K = c = 0, gives NaN.
  const ConverterParams& p = conv.params();
  const double cap = p.max_input_power_w;
  const double ceiling = p.eta_peak * cap * cap / (cap + p.fixed_loss_w);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_GE(bound.at_spread(2.0, 1.0, inf), ceiling);
  EXPECT_GE(bound.at_spread(30.0, 1.0, inf), ceiling);
  EXPECT_TRUE(std::isnan(bound.at_spread(0.0, 1.0, 0.0)));
  EXPECT_TRUE(std::isnan(bound.at_spread(std::nan(""), 1.0, 1.0)));
  EXPECT_TRUE(std::isnan(bound.at_spread(30.0, 1.0, std::nan(""))));
}

}  // namespace
}  // namespace tegrec::power
