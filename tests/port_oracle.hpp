// Test-only reference port of a configuration: direct summation over
// module ports (teg::in_parallel per group, teg::in_series over groups).
// teg::ArrayEvaluator's prefix-sum fast path rounds differently, so tests
// compare the two to ~1e-12 relative, never bit-for-bit.
#pragma once

#include <cstddef>
#include <vector>

#include "teg/array.hpp"
#include "teg/config.hpp"
#include "teg/linear_source.hpp"

namespace tegrec::oracle {

/// Modules [begin, end) of `array` wired in parallel.
inline teg::LinearSource direct_group_port(const teg::TegArray& array,
                                           std::size_t begin, std::size_t end) {
  std::vector<teg::LinearSource> members;
  for (std::size_t i = begin; i < end; ++i) {
    members.push_back(array.module(i).port());
  }
  return teg::in_parallel(members);
}

/// The configuration's series string of parallel groups.
inline teg::LinearSource direct_string_port(const teg::TegArray& array,
                                            const teg::ArrayConfig& config) {
  std::vector<teg::LinearSource> groups;
  for (std::size_t j = 0; j < config.num_groups(); ++j) {
    groups.push_back(
        direct_group_port(array, config.group_begin(j), config.group_end(j)));
  }
  return teg::in_series(groups);
}

}  // namespace tegrec::oracle
