// Two-dimensional radiator: parallel bundle of 1-D tube rows.
//
// Section III.A of the paper: "the actual 2-dimensional radiator structure
// in a vehicle is a parallel connection of multiple 1-dimensional ones".
// This module models that structure explicitly instead of assuming it
// away: the coolant flow splits across `num_rows` tubes (with a
// configurable header imbalance — outer tubes see less flow), the air
// stream splits evenly, and every row develops its own Eq. (1) decay
// profile.  Each row carries its own TEG sub-array; the rows' series
// strings join in parallel at the charger (core/bank.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "thermal/radiator.hpp"

namespace tegrec::thermal {

struct Radiator2DLayout {
  /// Geometry of one row (tube length = one core crossing).
  RadiatorLayout row;
  std::size_t num_rows = 4;
  /// Header flow imbalance: row r of R receives a share proportional to
  /// (1 + imbalance * x_r) where x_r spans [-1, 1] from first to last row.
  /// 0 = perfectly balanced header; 0.3 = outer rows 30% below/above mean.
  double flow_imbalance = 0.0;

  std::size_t total_modules() const { return row.num_modules * num_rows; }
};

/// Relative flow share of each row (sums to 1).
std::vector<double> row_flow_shares(const Radiator2DLayout& layout);

/// Hot-side module temperatures per row.  `total` carries the *total*
/// coolant and air capacity rates entering the radiator; they are divided
/// across rows per the flow shares (coolant) and evenly (air).
/// Result: num_rows vectors of row.num_modules temperatures.
std::vector<std::vector<double>> row_module_temperatures(
    const Radiator2DLayout& layout, const StreamConditions& total);

/// Per-row dT distributions (hot side minus ambient).
std::vector<std::vector<double>> row_module_delta_t(
    const Radiator2DLayout& layout, const StreamConditions& total);

}  // namespace tegrec::thermal
