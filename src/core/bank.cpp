#include "core/bank.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "teg/array_evaluator.hpp"

namespace tegrec::core {

namespace {

// Golden-section search for the bank's best common terminal voltage under
// the converter's efficiency curve.
double best_bank_power(const teg::LinearSource& bank,
                       const power::Converter& converter) {
  const double lo_init = 0.0;
  const double hi_init = std::max(bank.voc_v, 1e-9);
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
  auto value = [&](double v) {
    const double raw = bank.power_at_voltage(v);
    return raw <= 0.0 ? 0.0 : converter.output_power_w(v, raw);
  };
  double lo = lo_init, hi = hi_init;
  double x1 = hi - phi * (hi - lo);
  double x2 = lo + phi * (hi - lo);
  double f1 = value(x1), f2 = value(x2);
  while (hi - lo > 1e-6 * hi_init) {
    if (f1 < f2) {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + phi * (hi - lo);
      f2 = value(x2);
    } else {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - phi * (hi - lo);
      f1 = value(x1);
    }
  }
  return value(0.5 * (lo + hi));
}

}  // namespace

double BankSearchResult::rowwise_ideal_power_w() const {
  double total = 0.0;
  for (const teg::LinearSource& row : rows) total += row.mpp_power_w();
  return total;
}

double bank_power_w(const teg::LinearSource& bank,
                    const power::Converter& converter) {
  return best_bank_power(bank, converter);
}

BankSearchResult bank_search(const std::vector<teg::TegArray>& rows,
                             const power::Converter& converter,
                             BankStrategy strategy) {
  if (rows.empty()) throw std::invalid_argument("bank_search: no rows");

  // Pass 1: the paper's reduction — independent INOR per row.
  std::vector<teg::ArrayConfig> configs;
  std::vector<teg::ArrayEvaluator> evaluators;
  configs.reserve(rows.size());
  evaluators.reserve(rows.size());
  for (const teg::TegArray& row : rows) {
    configs.push_back(inor_search(row, converter));
    evaluators.emplace_back(row);
  }
  auto row_vmpp = [&](std::size_t r, const teg::ArrayConfig& config) {
    return evaluators[r].string_equivalent(config).mpp_voltage_v();
  };

  if (strategy == BankStrategy::kVoltageMatched && rows.size() > 1) {
    // Pass 2: align row MPP voltages to the median.  For each row, scan
    // group counts around the independent choice and keep the one whose
    // string VMPP is closest to the median voltage while not sacrificing
    // more than a sliver of its own power.
    std::vector<double> vmpps;
    vmpps.reserve(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      vmpps.push_back(row_vmpp(r, configs[r]));
    }
    std::vector<double> sorted = vmpps;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    const double target_v = sorted[sorted.size() / 2];

    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::size_t n0 = configs[r].num_groups();
      const auto impp = rows[r].module_mpp_currents();
      double best_dist = std::abs(vmpps[r] - target_v);
      const std::size_t n_lo = n0 > 3 ? n0 - 3 : 1;
      const std::size_t n_hi = std::min(rows[r].size(), n0 + 3);
      for (std::size_t n = n_lo; n <= n_hi; ++n) {
        teg::ArrayConfig candidate = inor_partition(impp, n);
        const double v = row_vmpp(r, candidate);
        const double dist = std::abs(v - target_v);
        if (dist < best_dist) {
          best_dist = dist;
          configs[r] = std::move(candidate);
        }
      }
    }
  }

  // Evaluate the bank at the chosen configurations.
  BankSearchResult result;
  result.rows.reserve(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    result.rows.push_back(evaluators[r].string_equivalent(configs[r]));
  }
  result.row_configs = std::move(configs);
  result.bank = teg::in_parallel(result.rows);
  result.output_power_w = best_bank_power(result.bank, converter);
  return result;
}

}  // namespace tegrec::core
