// Test-only reference port of a configuration: direct summation over
// module ports (teg::in_parallel per group, teg::in_series over groups).
// teg::ArrayEvaluator's prefix-sum fast path rounds differently, so tests
// compare the two to ~1e-12 relative, never bit-for-bit.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "teg/config.hpp"
#include "teg/linear_source.hpp"

namespace tegrec::oracle {

/// Modules [begin, end) of `ports` wired in parallel.
inline teg::LinearSource direct_group_port(
    std::span<const teg::LinearSource> ports, std::size_t begin,
    std::size_t end) {
  return teg::in_parallel(ports.subspan(begin, end - begin));
}

/// The configuration's series string of parallel groups.
inline teg::LinearSource direct_string_port(
    std::span<const teg::LinearSource> ports, const teg::ArrayConfig& config) {
  std::vector<teg::LinearSource> groups;
  for (std::size_t j = 0; j < config.num_groups(); ++j) {
    groups.push_back(
        direct_group_port(ports, config.group_begin(j), config.group_end(j)));
  }
  return teg::in_series(groups);
}

}  // namespace tegrec::oracle
