// Row-wise reconfiguration of a 2-D (multi-row) TEG bank.
//
// The paper reduces the 2-D radiator to independent 1-D problems; this
// module implements that reduction and quantifies its cost.  Two search
// strategies over the per-row configurations:
//
//  * kIndependent — run INOR on every row in isolation (the paper's
//    reduction).  Each row lands near its own MPP, but rows with unequal
//    flow develop unequal MPP voltages and back-feed each other at the
//    common charger port.
//  * kVoltageMatched — after the independent pass, re-run each row's INOR
//    restricted to group counts whose string MPP voltage is closest to the
//    bank median, trading a little per-row optimality for parallel
//    alignment.  Recovers most of the back-feed loss at O(rows * N) cost.
//
// Each row's port is its series string (ArrayEvaluator::string_equivalent);
// the rows join in parallel at the charger (teg::in_parallel), so the bank
// is again one linear source with a closed-form MPP.
#pragma once

#include <vector>

#include "core/inor.hpp"
#include "power/converter.hpp"
#include "teg/array.hpp"
#include "teg/linear_source.hpp"

namespace tegrec::core {

enum class BankStrategy { kIndependent, kVoltageMatched };

struct BankSearchResult {
  std::vector<teg::ArrayConfig> row_configs;
  std::vector<teg::LinearSource> rows;  ///< each row's string port
  teg::LinearSource bank;               ///< the rows in parallel
  double output_power_w = 0.0;          ///< post-converter bank power

  /// Sum of each row's own string MPP — what the bank would deliver if
  /// every row could sit at its own MPP voltage.
  double rowwise_ideal_power_w() const;
};

/// Searches per-row configurations for a bank of row arrays.  Every
/// element of `rows` is one row's TegArray (typically from
/// thermal::row_module_delta_t).  All rows share `converter`.
BankSearchResult bank_search(const std::vector<teg::TegArray>& rows,
                             const power::Converter& converter,
                             BankStrategy strategy = BankStrategy::kVoltageMatched);

}  // namespace tegrec::core
