// The 3(N-1)-switch reconfiguration fabric of the paper's Fig. 4.
//
// Between every pair of adjacent modules i and i+1 sit three switches: a
// series switch S_S,i in the middle and two parallel switches S_PT,i /
// S_PB,i on the top and bottom rails.  Exactly one connection type is
// active per adjacency: series (S_S closed, both parallel open) or parallel
// (both parallel closed, S_S open).  So the switch states are a function
// of the wired ArrayConfig, which is all the network stores: adjacency
// s-1 | s is series exactly when a group starts at module s.
//
// Moving between two configurations flips the adjacencies whose type
// differs — ArrayConfig::boundary_distance, one O(groups) merge — and each
// flip actuates all three of its switches.  A 10k-module fabric whose
// optimum drifts by two boundaries therefore actuates 6 switches after
// O(groups) work, not an O(N) rebuild.
#pragma once

#include <cstddef>

#include "teg/config.hpp"

namespace tegrec::switchfab {

/// Switch actuations that move the fabric from `from` to `to`: three per
/// adjacency whose connection type flips.  The one place that cost lives;
/// the fabric, DNOR's switch-or-hold rule and the prescient oracle all
/// charge it.  Throws std::invalid_argument on differing module counts.
std::size_t switch_actuations(const teg::ArrayConfig& from,
                              const teg::ArrayConfig& to);

class SwitchNetwork {
 public:
  /// The fabric wired to `initial`, which must span `num_modules` modules
  /// (std::invalid_argument otherwise).  Initial wiring is free.
  SwitchNetwork(std::size_t num_modules, const teg::ArrayConfig& initial);

  std::size_t num_modules() const { return wired_.num_modules(); }

  /// Rewires to `config` and returns the switch actuations it took
  /// (switch_actuations(current_config(), config)).  Throws
  /// std::invalid_argument, wiring nothing, on a config sized for a
  /// different module count.  Allocates nothing once the wired buffer has
  /// grown to the largest group count seen.
  std::size_t apply(const teg::ArrayConfig& config);

  /// The wired configuration.
  const teg::ArrayConfig& current_config() const { return wired_; }

 private:
  teg::ArrayConfig wired_;
};

}  // namespace tegrec::switchfab
