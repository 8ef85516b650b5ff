// Test-only reference for core::inor_partition: the plain linear walk of
// Algorithm 1's inner loop, one prefix and one O(N) pass per call.  The
// library gallops over the prefix instead; tests/test_inor.cpp checks the
// two return identical configurations.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "teg/config.hpp"

namespace tegrec::oracle {

inline teg::ArrayConfig inor_partition_linear(
    const std::vector<double>& mpp_currents, std::size_t n) {
  const std::size_t count = mpp_currents.size();
  if (n == 0 || n > count) {
    throw std::invalid_argument("inor_partition: bad group count");
  }
  // prefix[i] = sum of the first i values; zero currents are legal,
  // negatives are not.
  std::vector<double> prefix(count + 1, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    if (mpp_currents[i] < 0.0) {
      throw std::invalid_argument("inor_partition: negative MPP current");
    }
    prefix[i + 1] = prefix[i] + mpp_currents[i];
  }
  if (prefix[count] <= 0.0) {
    // Dead array: any balanced partition is as good as any other.
    return teg::ArrayConfig::uniform(count, n);
  }
  const double i_ideal = prefix[count] / static_cast<double>(n);

  std::vector<std::size_t> starts{0};
  std::size_t boundary = 0;  // end (exclusive) of the previous group
  for (std::size_t j = 1; j < n; ++j) {
    // Walk g forward while the group sum moves closer to Iideal; stop at
    // the first worsening step.
    const double base = prefix[boundary];
    std::size_t g = boundary + 1;               // at least one module per group
    const std::size_t g_max = count - (n - j);  // one module per later group
    while (g < g_max && std::abs(prefix[g + 1] - base - i_ideal) <=
                            std::abs(prefix[g] - base - i_ideal)) {
      ++g;
    }
    starts.push_back(g);
    boundary = g;
  }
  return teg::ArrayConfig(std::move(starts), count);
}

}  // namespace tegrec::oracle
