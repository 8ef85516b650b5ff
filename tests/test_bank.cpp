#include "core/bank.hpp"

#include <gtest/gtest.h>

#include "teg/array_evaluator.hpp"
#include "thermal/radiator2d.hpp"

namespace tegrec::core {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

std::vector<teg::TegArray> make_rows(double imbalance, std::size_t num_rows = 4,
                                     std::size_t per_row = 25) {
  thermal::Radiator2DLayout layout;
  layout.num_rows = num_rows;
  layout.flow_imbalance = imbalance;
  layout.row.num_modules = per_row;
  thermal::StreamConditions total;
  total.hot_inlet_c = 92.0;
  total.cold_inlet_c = 25.0;
  total.hot_capacity_w_k = 2400.0;
  total.cold_capacity_w_k = 2200.0;
  std::vector<teg::TegArray> rows;
  for (const auto& dts : thermal::row_module_delta_t(layout, total)) {
    rows.emplace_back(kDev, dts, total.cold_inlet_c);
  }
  return rows;
}

TEST(BankSearch, EmptyRowsThrow) {
  const power::Converter conv(kConv);
  EXPECT_THROW(bank_search({}, conv), std::invalid_argument);
}

TEST(BankSearch, ProducesOneConfigPerRow) {
  const power::Converter conv(kConv);
  const auto rows = make_rows(0.3);
  const BankSearchResult res = bank_search(rows, conv);
  ASSERT_EQ(res.row_configs.size(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(res.row_configs[r].num_modules(), rows[r].size());
  }
  EXPECT_GT(res.output_power_w, 0.0);
}

TEST(BankSearch, BalancedRowsBothStrategiesAgree) {
  const power::Converter conv(kConv);
  const auto rows = make_rows(0.0);
  const double p_ind =
      bank_search(rows, conv, BankStrategy::kIndependent).output_power_w;
  const double p_match =
      bank_search(rows, conv, BankStrategy::kVoltageMatched).output_power_w;
  EXPECT_NEAR(p_ind, p_match, 0.01 * p_ind);
}

TEST(BankSearch, VoltageMatchingHelpsOnImbalancedRows) {
  // With a strong header imbalance the independent reduction leaves rows
  // at different MPP voltages; the matching pass must recover power.
  const power::Converter conv(kConv);
  const auto rows = make_rows(0.5);
  const double p_ind =
      bank_search(rows, conv, BankStrategy::kIndependent).output_power_w;
  const double p_match =
      bank_search(rows, conv, BankStrategy::kVoltageMatched).output_power_w;
  EXPECT_GE(p_match, p_ind - 1e-9);
}

TEST(BankSearch, BoundedByIdeal) {
  const power::Converter conv(kConv);
  const auto rows = make_rows(0.3);
  const BankSearchResult res = bank_search(rows, conv);
  double ideal = 0.0;
  for (const auto& row : rows) ideal += row.ideal_power_w();
  EXPECT_LE(res.output_power_w, ideal + 1e-9);
  EXPECT_LE(res.bank.mpp_power_w(), res.rowwise_ideal_power_w() + 1e-9);
  EXPECT_LE(res.rowwise_ideal_power_w(), ideal + 1e-9);
}

TEST(BankSearch, BankIsRowPortsInParallel) {
  // Each row's port is its string at the chosen configuration; the bank
  // joins them at one terminal voltage.
  const power::Converter conv(kConv);
  const auto rows = make_rows(0.4);
  const BankSearchResult res = bank_search(rows, conv);
  ASSERT_EQ(res.rows.size(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const teg::LinearSource row =
        teg::ArrayEvaluator(rows[r]).string_equivalent(res.row_configs[r]);
    EXPECT_EQ(res.rows[r].voc_v, row.voc_v);
    EXPECT_EQ(res.rows[r].r_ohm, row.r_ohm);
  }
  const teg::LinearSource bank = teg::in_parallel(res.rows);
  EXPECT_EQ(res.bank.voc_v, bank.voc_v);
  EXPECT_EQ(res.bank.r_ohm, bank.r_ohm);
  // Row currents at the bank voltage sum to the bank current.
  const double v = 0.8 * res.bank.mpp_voltage_v();
  double total = 0.0;
  for (const teg::LinearSource& row : res.rows) total += row.current_at_voltage(v);
  EXPECT_NEAR(total, res.bank.current_at_voltage(v), 1e-9);
}

TEST(BankPower, MatchesBankMppUnderIdealConverter) {
  power::ConverterParams ideal;
  ideal.voltage_penalty = 0.0;
  ideal.fixed_loss_w = 0.0;
  ideal.eta_peak = 1.0;
  ideal.min_input_v = 0.01;
  ideal.max_input_v = 1000.0;
  ideal.max_input_power_w = 1e9;
  const power::Converter conv(ideal);
  const auto rows = make_rows(0.2);
  const BankSearchResult res = bank_search(rows, conv);
  EXPECT_NEAR(bank_power_w(res.bank, conv), res.bank.mpp_power_w(),
              0.01 * res.bank.mpp_power_w());
}

TEST(BankSearch, TwoDBankComparableToFlattened1D) {
  // Sanity link between the 2-D reduction and the paper's 1-D model: the
  // per-row reconfigured bank must land in the same power ballpark as an
  // equivalent single-string treatment of all modules.
  const power::Converter conv(kConv);
  const auto rows = make_rows(0.2);
  const BankSearchResult bank = bank_search(rows, conv);
  double ideal_total = 0.0;
  for (const auto& row : rows) ideal_total += row.ideal_power_w();
  EXPECT_GT(bank.output_power_w, 0.75 * ideal_total);
}

}  // namespace
}  // namespace tegrec::core
