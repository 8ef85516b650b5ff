// Multi-row (2-D) radiator walkthrough.
//
// Section III.A of the paper treats the 2-D radiator as parallel 1-D
// tubes.  This example builds the structure explicitly: a 4-row core with
// a skewed header, per-row INOR reconfiguration, and the parallel bank at
// the charger — showing where the reduction is exact and where the rows'
// voltage mismatch costs power.
//
//   ./build/examples/two_row_radiator
#include <cstdio>

#include "core/bank.hpp"
#include "thermal/radiator2d.hpp"
#include "util/table.hpp"

int main() {
  using namespace tegrec;

  // A 4-row core, 25 modules per row, with a header that feeds the last
  // row 40% more coolant than the first.
  thermal::Radiator2DLayout layout;
  layout.num_rows = 4;
  layout.row.num_modules = 25;
  layout.flow_imbalance = 0.4;

  thermal::StreamConditions total;
  total.hot_inlet_c = 92.0;
  total.cold_inlet_c = 25.0;
  total.hot_capacity_w_k = 2400.0;
  total.cold_capacity_w_k = 2200.0;

  const auto shares = thermal::row_flow_shares(layout);
  const auto row_dts = thermal::row_module_delta_t(layout, total);

  std::printf("4-row radiator, header imbalance 0.4:\n");
  util::TextTable rows_table({"row", "flow share", "dT inlet (K)", "dT exit (K)"});
  for (std::size_t r = 0; r < layout.num_rows; ++r) {
    rows_table.begin_row()
        .add(static_cast<long long>(r))
        .add(shares[r], 3)
        .add(row_dts[r].front(), 1)
        .add(row_dts[r].back(), 1);
  }
  std::printf("%s\n", rows_table.render().c_str());

  // Per-row arrays and the two bank strategies.
  const teg::DeviceParams device = teg::tgm_199_1_4_0_8();
  const power::Converter converter{power::ConverterParams{}};
  std::vector<teg::TegArray> rows;
  for (const auto& dts : row_dts) {
    rows.emplace_back(device, dts, total.cold_inlet_c);
  }

  const auto independent =
      core::bank_search(rows, converter, core::BankStrategy::kIndependent);
  const auto matched =
      core::bank_search(rows, converter, core::BankStrategy::kVoltageMatched);

  std::printf("per-row configurations (voltage-matched pass):\n");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::printf("  row %zu: n=%zu groups, VMPP %.2f V (independent: n=%zu, %.2f V)\n",
                r, matched.row_configs[r].num_groups(),
                matched.rows[r].mpp_voltage_v(),
                independent.row_configs[r].num_groups(),
                independent.rows[r].mpp_voltage_v());
  }

  std::printf("\nbank output, independent rows:   %.2f W\n",
              independent.output_power_w);
  std::printf("bank output, voltage-matched:    %.2f W  (%+.2f%%)\n",
              matched.output_power_w,
              100.0 * (matched.output_power_w / independent.output_power_w - 1.0));
  double module_ideal = 0.0;
  for (const teg::TegArray& row : rows) module_ideal += row.ideal_power_w();
  std::printf("row-wise ideal (decoupled rows): %.2f W\n",
              matched.rowwise_ideal_power_w());
  std::printf("per-module ideal:                %.2f W\n", module_ideal);

  // Who back-feeds whom at the shared port?
  const double bank_vmpp = matched.bank.mpp_voltage_v();
  std::printf("\nrow currents at the bank MPP voltage (negative = back-fed):\n");
  for (std::size_t r = 0; r < matched.rows.size(); ++r) {
    std::printf("  row %zu: %+.3f A\n", r,
                matched.rows[r].current_at_voltage(bank_vmpp));
  }
  return 0;
}
