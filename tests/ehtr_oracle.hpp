// Test-only reference for core::ehtr_search: every balanced partition
// scored with config_power_w, the lowest-index maximum kept.  The library
// solves the DP lazily and, on its warm pass, skips the golden section on
// candidates a score bound rules out; tests/test_ehtr_warm.cpp checks the
// two return identical configurations.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "core/ehtr.hpp"
#include "core/objective.hpp"
#include "power/converter.hpp"
#include "teg/array_evaluator.hpp"
#include "teg/config.hpp"
#include "teg/linear_source.hpp"

namespace tegrec::oracle {

struct EhtrOracleResult {
  teg::ArrayConfig config;
  double power_w = -1.0;  ///< the winner's score; -1 when none beat it
};

/// Group counts 1..max_groups (0 = all N).  Non-finite MPP currents enter
/// the DP as zero, as in ehtr_search; when no candidate scores above -1
/// (every score NaN) the first candidate is returned.
inline EhtrOracleResult ehtr_search_ungated(
    std::span<const teg::LinearSource> ports, const power::Converter& converter,
    std::size_t max_groups = 0) {
  std::vector<double> impp;
  for (const teg::LinearSource& m : ports) {
    const double x = m.mpp_current_a();
    impp.push_back(std::isfinite(x) ? x : 0.0);
  }
  if (max_groups == 0 || max_groups > ports.size()) max_groups = ports.size();
  const std::vector<teg::ArrayConfig> candidates =
      core::balanced_partitions(impp, max_groups);
  const teg::ArrayEvaluator evaluator(ports);
  EhtrOracleResult best{candidates.front(), -1.0};
  for (const teg::ArrayConfig& candidate : candidates) {
    const double p = core::config_power_w(evaluator, converter, candidate);
    if (p > best.power_w) best = {candidate, p};
  }
  return best;
}

}  // namespace tegrec::oracle
