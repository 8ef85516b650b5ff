// The 3(N-1)-switch reconfiguration fabric of the paper's Fig. 4.
//
// Between every pair of adjacent modules i and i+1 sit three switches: a
// series switch S_S,i in the middle and two parallel switches S_PT,i /
// S_PB,i on the top and bottom rails.  Exactly one connection type is
// active per adjacency: series (S_S closed, both parallel open) or parallel
// (both parallel closed, S_S open).  The network tracks the physical state,
// applies ArrayConfigs, counts actuations, and rejects invalid states.
//
// Reconfiguration is incremental: the wired configuration's series
// boundaries are cached, so apply() finds the adjacencies whose connection
// type flips by merging two sorted boundary lists — O(groups) — and
// touches only those cells.  Per-actuation cost therefore
// scales with the size of the change, not the module count; a 10k-module
// fabric whose optimum drifts by two boundaries actuates 6 switches and
// does O(groups) bookkeeping instead of an O(N) rebuild.
#pragma once

#include <cstddef>
#include <vector>

#include "teg/config.hpp"

namespace tegrec::switchfab {

/// State of the three switches of one adjacency cell.
struct SwitchCell {
  bool series_closed = false;        ///< S_S,i
  bool parallel_top_closed = true;   ///< S_PT,i
  bool parallel_bottom_closed = true;///< S_PB,i

  bool is_series() const { return series_closed; }
  bool is_valid() const {
    // Exactly one connection type: series XOR (both parallel).
    const bool parallel = parallel_top_closed && parallel_bottom_closed;
    const bool none_parallel = !parallel_top_closed && !parallel_bottom_closed;
    return (series_closed && none_parallel) || (!series_closed && parallel);
  }
};

class SwitchNetwork {
 public:
  /// Initial state: the given configuration applied (default all-parallel).
  explicit SwitchNetwork(std::size_t num_modules);
  SwitchNetwork(std::size_t num_modules, const teg::ArrayConfig& initial);

  std::size_t num_modules() const { return num_modules_; }
  std::size_t num_cells() const { return cells_.size(); }
  const SwitchCell& cell(std::size_t i) const;

  /// Applies a configuration; returns the number of individual switch
  /// actuations performed (3 per adjacency whose type flips, so 3 *
  /// boundary_distance).  Merges the wired and target series-boundary
  /// lists in O(groups) and flips only the changed cells, without
  /// allocating.  Throws std::invalid_argument on a config sized for a
  /// different module count.
  std::size_t apply(const teg::ArrayConfig& config);

  /// Recovers the ArrayConfig corresponding to the current switch state
  /// (O(groups) — served from the cached boundary list).
  teg::ArrayConfig current_config() const;

  /// Lifetime actuation counter (wear tracking).
  std::size_t total_actuations() const { return total_actuations_; }
  /// Number of apply() calls that changed at least one switch.
  std::size_t reconfiguration_events() const { return events_; }

  /// All cells valid (every adjacency has exactly one connection type).
  bool is_valid() const;

 private:
  std::size_t num_modules_ = 0;
  std::vector<SwitchCell> cells_;
  /// Group starts of the wired configuration — the cached mirror of
  /// cells_ that makes apply() and current_config() O(groups).
  std::vector<std::size_t> starts_;
  std::size_t total_actuations_ = 0;
  std::size_t events_ = 0;

  void set_cell(std::size_t i, bool series);
};

}  // namespace tegrec::switchfab
