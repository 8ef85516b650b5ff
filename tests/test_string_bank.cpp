// A 2-D bank is rows (series strings) joined in parallel at one port:
// in_parallel over in_series rows.
#include <gtest/gtest.h>

#include <vector>

#include "teg/linear_source.hpp"
#include "teg/module.hpp"

namespace tegrec::teg {
namespace {

const DeviceParams kDev = tgm_199_1_4_0_8();

// A row of `n` modules with dT falling linearly from dt_hi to dt_lo, wired
// as `groups` equal contiguous parallel groups in series.
LinearSource string_at(double dt_hi, double dt_lo, std::size_t n = 20,
                       std::size_t groups = 5) {
  const std::size_t per_group = n / groups;
  std::vector<LinearSource> group_ports;
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<LinearSource> members;
    for (std::size_t k = 0; k < per_group; ++k) {
      const std::size_t i = g * per_group + k;
      const double dt = dt_hi + (dt_lo - dt_hi) * static_cast<double>(i) /
                                    static_cast<double>(n - 1);
      members.push_back(Module::from_delta_t(kDev, dt).port());
    }
    group_ports.push_back(in_parallel(members));
  }
  return in_series(group_ports);
}

double rowwise_ideal_power_w(const std::vector<LinearSource>& rows) {
  double total = 0.0;
  for (const LinearSource& r : rows) total += r.mpp_power_w();
  return total;
}

TEST(RowsInParallel, SingleRowEqualsString) {
  const LinearSource s = string_at(35.0, 12.0);
  const LinearSource bank = in_parallel(std::vector<LinearSource>{s});
  EXPECT_NEAR(bank.voc_v, s.voc_v, 1e-12);
  EXPECT_NEAR(bank.r_ohm, s.r_ohm, 1e-12);
  EXPECT_NEAR(bank.mpp_power_w(), s.mpp_power_w(), 1e-9);
}

TEST(RowsInParallel, IdenticalRowsScalePower) {
  // Three identical rows in parallel: same voltage, triple power.
  const LinearSource s = string_at(35.0, 12.0);
  const LinearSource bank = in_parallel(std::vector<LinearSource>{s, s, s});
  EXPECT_NEAR(bank.mpp_voltage_v(), s.mpp_voltage_v(), 1e-9);
  EXPECT_NEAR(bank.mpp_power_w(), 3.0 * s.mpp_power_w(), 1e-9);
}

TEST(RowsInParallel, RowCurrentsSumToBankCurrent) {
  const std::vector<LinearSource> rows{string_at(35.0, 12.0),
                                       string_at(28.0, 9.0)};
  const LinearSource bank = in_parallel(rows);
  const double v = 0.8 * bank.mpp_voltage_v();
  double total = 0.0;
  for (const LinearSource& r : rows) total += r.current_at_voltage(v);
  EXPECT_NEAR(total, bank.current_at_voltage(v), 1e-9);
}

TEST(RowsInParallel, MismatchedRowsLoseVsRowwiseIdeal) {
  // Rows with different MPP voltages cannot all be at MPP at the shared
  // port — the 2-D analogue of Fig. 3(a).
  const std::vector<LinearSource> rows{string_at(40.0, 20.0),
                                       string_at(18.0, 6.0)};
  EXPECT_LT(in_parallel(rows).mpp_power_w(), rowwise_ideal_power_w(rows) - 1e-9);
}

TEST(RowsInParallel, MatchedRowsReachRowwiseIdeal) {
  const LinearSource s = string_at(30.0, 10.0);
  const std::vector<LinearSource> rows{s, s};
  EXPECT_NEAR(in_parallel(rows).mpp_power_w(), rowwise_ideal_power_w(rows),
              1e-9);
}

TEST(RowsInParallel, WeakRowBackFedAtHighVoltage) {
  const LinearSource strong = string_at(40.0, 25.0);
  const LinearSource weak = string_at(12.0, 4.0);
  const double v = strong.mpp_voltage_v();
  EXPECT_GT(strong.current_at_voltage(v), 0.0);
  EXPECT_LT(weak.current_at_voltage(v), 0.0);  // back-fed
}

TEST(RowsInParallel, MppDominatesVoltageSweep) {
  const LinearSource bank = in_parallel(std::vector<LinearSource>{
      string_at(36.0, 14.0), string_at(30.0, 11.0)});
  for (double frac = 0.0; frac <= 1.0; frac += 0.02) {
    EXPECT_LE(bank.power_at_voltage(frac * bank.voc_v),
              bank.mpp_power_w() + 1e-9);
  }
}

}  // namespace
}  // namespace tegrec::teg
