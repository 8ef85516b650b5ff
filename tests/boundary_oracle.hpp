// Test-only reference for the fabric's per-adjacency view of a
// configuration.  teg::ArrayConfig::boundary_distance and
// switchfab::switch_actuations count flipped adjacencies with one merge
// over the two group-start lists; this oracle walks every adjacency and
// binary-searches each side, O(N log groups), the way the fabric's cells
// are wired.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "teg/config.hpp"
#include "util/rng.hpp"

namespace tegrec::oracle {

/// True if the adjacency between modules i and i+1 is a series boundary
/// (the S_S,i switch closed); false means parallel (S_PT/S_PB closed).
inline bool is_series_boundary(const teg::ArrayConfig& config, std::size_t i) {
  if (i + 1 >= config.num_modules()) {
    throw std::out_of_range("oracle::is_series_boundary");
  }
  const std::vector<std::size_t>& starts = config.group_starts();
  return std::binary_search(starts.begin(), starts.end(), i + 1);
}

/// Adjacencies whose connection type differs between `a` and `b`.
inline std::size_t boundary_distance(const teg::ArrayConfig& a,
                                     const teg::ArrayConfig& b) {
  if (a.num_modules() != b.num_modules()) {
    throw std::invalid_argument("oracle::boundary_distance: size mismatch");
  }
  std::size_t diff = 0;
  for (std::size_t i = 0; i + 1 < a.num_modules(); ++i) {
    if (is_series_boundary(a, i) != is_series_boundary(b, i)) ++diff;
  }
  return diff;
}

/// A configuration whose every adjacency is a series boundary with
/// probability `boundary_density`.
inline teg::ArrayConfig random_config(util::Rng& rng, std::size_t num_modules,
                                      double boundary_density) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 1; i < num_modules; ++i) {
    if (rng.bernoulli(boundary_density)) starts.push_back(i);
  }
  return teg::ArrayConfig(std::move(starts), num_modules);
}

}  // namespace tegrec::oracle
