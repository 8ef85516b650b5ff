#include "core/exhaustive.hpp"

#include <stdexcept>

#include "core/objective.hpp"
#include "power/mppt.hpp"
#include "teg/linear_source.hpp"

namespace tegrec::core {

ExhaustiveResult exhaustive_contiguous_search(const teg::TegArray& array,
                                              const power::Converter& converter) {
  const std::size_t n = array.size();
  if (n > 24) {
    throw std::invalid_argument("exhaustive_contiguous_search: N > 24");
  }
  ExhaustiveResult best;
  best.power_w = -1.0;
  const teg::ArrayEvaluator evaluator(array);
  const std::size_t masks = std::size_t{1} << (n - 1);
  for (std::size_t mask = 0; mask < masks; ++mask) {
    std::vector<std::size_t> starts{0};
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (mask & (std::size_t{1} << i)) starts.push_back(i + 1);
    }
    teg::ArrayConfig candidate(std::move(starts), n);
    const double p = config_power_w(evaluator, converter, candidate);
    ++best.evaluated;
    if (p > best.power_w) {
      best.power_w = p;
      best.config = std::move(candidate);
    }
  }
  return best;
}

namespace {

// Recursively assigns module `i` to an existing group or a fresh one
// (canonical set-partition enumeration), scoring complete assignments.
// Groups need not be contiguous, so each candidate's port is summed
// directly from module ports instead of through an ArrayEvaluator.
void enumerate_partitions(const teg::TegArray& array,
                          const power::Converter& converter, std::size_t i,
                          std::vector<std::vector<teg::LinearSource>>& groups,
                          SetPartitionResult& best) {
  if (i == array.size()) {
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
  const teg::LinearSource& m = array.module(i).port();
  // Index, not iterator: the recursion appends to `groups` and may
  // reallocate it before restoring its size.
  for (std::size_t k = 0; k < groups.size(); ++k) {
    groups[k].push_back(m);
    enumerate_partitions(array, converter, i + 1, groups, best);
    groups[k].pop_back();
  }
  groups.push_back({m});
  enumerate_partitions(array, converter, i + 1, groups, best);
  groups.pop_back();
}

}  // namespace

SetPartitionResult exhaustive_set_partition_search(
    const teg::TegArray& array, const power::Converter& converter) {
  if (array.size() > 12) {
    throw std::invalid_argument("exhaustive_set_partition_search: N > 12");
  }
  SetPartitionResult best;
  best.power_w = -1.0;
  std::vector<std::vector<teg::LinearSource>> groups;
  enumerate_partitions(array, converter, 0, groups, best);
  return best;
}

}  // namespace tegrec::core
