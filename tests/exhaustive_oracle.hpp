// Exhaustive configuration search: test-only validation oracles for small N.
//
// Two searches back the near-optimality claims:
//  * exhaustive_contiguous_search — enumerates all 2^(N-1) contiguous
//    partitions (every subset of series boundaries).  This is the true
//    optimum of the space INOR/EHTR search; tests assert both heuristics
//    land within a small factor of it.
//  * exhaustive_set_partition_search — enumerates all set partitions
//    (non-contiguous grouping, Bell(N) candidates) to quantify how much
//    the fabric's contiguity restriction costs at all.  Only feasible for
//    N <~ 12.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/objective.hpp"
#include "power/converter.hpp"
#include "power/mppt.hpp"
#include "teg/array_evaluator.hpp"
#include "teg/config.hpp"
#include "teg/linear_source.hpp"

namespace tegrec::oracle {

/// Result of an exhaustive search.
struct ExhaustiveResult {
  teg::ArrayConfig config;      ///< best contiguous representative
  double power_w = 0.0;         ///< charger-aware power of the best
  std::size_t evaluated = 0;    ///< number of candidates scored
};

/// Optimum over all contiguous partitions.  Throws for N > 24 (2^23
/// candidates) to keep runtimes sane.
inline ExhaustiveResult exhaustive_contiguous_search(
    std::span<const teg::LinearSource> ports,
    const power::Converter& converter) {
  const std::size_t n = ports.size();
  if (n > 24) {
    throw std::invalid_argument("exhaustive_contiguous_search: N > 24");
  }
  ExhaustiveResult best;
  best.power_w = -1.0;
  const teg::ArrayEvaluator evaluator(ports);
  const std::size_t masks = std::size_t{1} << (n - 1);
  for (std::size_t mask = 0; mask < masks; ++mask) {
    std::vector<std::size_t> starts{0};
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (mask & (std::size_t{1} << i)) starts.push_back(i + 1);
    }
    teg::ArrayConfig candidate(std::move(starts), n);
    const double p = core::config_power_w(evaluator, converter, candidate);
    ++best.evaluated;
    if (p > best.power_w) {
      best.power_w = p;
      best.config = std::move(candidate);
    }
  }
  return best;
}

/// Best power over all set partitions (groups need not be contiguous).
/// The returned power is what a fully flexible fabric could reach; no
/// ArrayConfig can represent it in general, so only the power and the
/// candidate count are returned.  Throws for N > 12.
struct SetPartitionResult {
  double power_w = 0.0;
  std::size_t evaluated = 0;
};

namespace detail {

// Recursively assigns module `i` to an existing group or a fresh one
// (canonical set-partition enumeration), scoring complete assignments.
// Groups need not be contiguous, so each candidate's port is summed
// directly from module ports instead of through an ArrayEvaluator.
inline void enumerate_partitions(
    std::span<const teg::LinearSource> ports, const power::Converter& converter,
    std::size_t i, std::vector<std::vector<teg::LinearSource>>& groups,
    SetPartitionResult& best) {
  if (i == ports.size()) {
    std::vector<teg::LinearSource> ports;
    ports.reserve(groups.size());
    for (const auto& members : groups) ports.push_back(teg::in_parallel(members));
    const double p =
        power::optimal_operating_point(teg::in_series(ports), converter)
            .output_power_w;
    ++best.evaluated;
    if (p > best.power_w) best.power_w = p;
    return;
  }
  const teg::LinearSource& m = ports[i];
  // Index, not iterator: the recursion appends to `groups` and may
  // reallocate it before restoring its size.
  for (std::size_t k = 0; k < groups.size(); ++k) {
    groups[k].push_back(m);
    enumerate_partitions(ports, converter, i + 1, groups, best);
    groups[k].pop_back();
  }
  groups.push_back({m});
  enumerate_partitions(ports, converter, i + 1, groups, best);
  groups.pop_back();
}

}  // namespace detail

inline SetPartitionResult exhaustive_set_partition_search(
    std::span<const teg::LinearSource> ports,
    const power::Converter& converter) {
  if (ports.size() > 12) {
    throw std::invalid_argument("exhaustive_set_partition_search: N > 12");
  }
  SetPartitionResult best;
  best.power_w = -1.0;
  std::vector<std::vector<teg::LinearSource>> groups;
  detail::enumerate_partitions(ports, converter, 0, groups, best);
  return best;
}

}  // namespace tegrec::oracle
