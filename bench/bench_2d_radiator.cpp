// 2-D radiator study (Section III.A's "parallel connection of multiple
// 1-dimensional ones", modelled explicitly).
//
//   1. header flow-imbalance sweep: how much power the paper's
//      independent-rows reduction leaves on the table as rows diverge;
//   2. independent vs voltage-matched row reconfiguration;
//   3. row-count sweep at fixed total module count.
#include <cstdio>

#include "core/bank.hpp"
#include "thermal/radiator2d.hpp"
#include "util/table.hpp"

namespace {

using namespace tegrec;

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();

thermal::StreamConditions nominal_total() {
  thermal::StreamConditions total;
  total.hot_inlet_c = 92.0;
  total.cold_inlet_c = 25.0;
  total.hot_capacity_w_k = 2400.0;
  total.cold_capacity_w_k = 2200.0;
  return total;
}

std::vector<teg::TegArray> build_rows(std::size_t num_rows, std::size_t per_row,
                                      double imbalance) {
  thermal::Radiator2DLayout layout;
  layout.num_rows = num_rows;
  layout.flow_imbalance = imbalance;
  layout.row.num_modules = per_row;
  std::vector<teg::TegArray> rows;
  for (const auto& dts :
       thermal::row_module_delta_t(layout, nominal_total())) {
    rows.emplace_back(kDev, dts, nominal_total().cold_inlet_c);
  }
  return rows;
}

}  // namespace

int main() {
  const power::Converter conv{power::ConverterParams{}};

  std::printf("=== 2-D radiator: parallel rows of 1-D arrays ===\n\n");

  // 1+2: imbalance sweep, both strategies.
  {
    std::printf("-- flow-imbalance sweep (4 rows x 25 modules) --\n");
    util::TextTable table({"imbalance", "independent (W)", "matched (W)",
                           "matched gain %", "rowwise ideal (W)"});
    for (double imb : {0.0, 0.2, 0.4, 0.6}) {
      const auto rows = build_rows(4, 25, imb);
      const auto ind =
          core::bank_search(rows, conv, core::BankStrategy::kIndependent);
      const auto match =
          core::bank_search(rows, conv, core::BankStrategy::kVoltageMatched);
      table.begin_row()
          .add(imb, 2)
          .add(ind.output_power_w, 3)
          .add(match.output_power_w, 3)
          .add(100.0 * (match.output_power_w / ind.output_power_w - 1.0), 2)
          .add(ind.rowwise_ideal_power_w(), 3);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("shape check: at zero imbalance both strategies coincide; the\n"
                "voltage-matched pass recovers more as the header skews.\n\n");
  }

  // 3: row count at fixed total modules.
  {
    std::printf("-- row-count sweep (100 modules total, imbalance 0.3) --\n");
    util::TextTable table({"rows", "per row", "bank power (W)",
                           "rowwise ideal (W)", "reduction quality %"});
    for (std::size_t rows_n : {1u, 2u, 4u, 5u, 10u}) {
      const auto rows = build_rows(rows_n, 100 / rows_n, 0.3);
      const auto res = core::bank_search(rows, conv);
      const double ideal = res.rowwise_ideal_power_w();
      table.begin_row()
          .add(static_cast<long long>(rows_n))
          .add(static_cast<long long>(100 / rows_n))
          .add(res.output_power_w, 3)
          .add(ideal, 3)
          .add(100.0 * res.output_power_w / ideal, 2);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Reading: absolute power falls with more rows because each row\n"
                "receives 1/R of the air and coolant capacity (a thermal\n"
                "effect); the *electrical* quality of the paper's row-wise\n"
                "reduction — bank output over the sum of per-row string MPPs —\n"
                "stays high across the sweep, which is what justifies treating\n"
                "the 2-D radiator as parallel 1-D problems.\n");
  }
  return 0;
}
