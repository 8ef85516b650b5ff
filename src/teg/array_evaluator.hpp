// Cached O(groups) evaluation of array configurations.
//
// A configuration's port is in_series over its groups of in_parallel over
// module ports (teg/linear_source.hpp).  Summing module ports directly costs
// O(N) per candidate, which would dominate EHTR's ~N-candidate scoring loop
// and the simulator's per-step evaluation.  The only per-module quantities
// the parallel sum consumes are the conductance 1/R_i and the Norton
// current Voc_i/R_i; both are additive, so prefix sums computed once per
// temperature distribution turn any contiguous group's Thevenin equivalent
// into two subtractions and a full ArrayConfig's port model into one scalar
// O(num_groups) loop with zero heap allocation.  Prefix subtraction rounds
// differently from direct summation, so the two agree to ~1e-12 relative,
// not bit-for-bit; every production scorer uses this evaluator.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "teg/config.hpp"
#include "teg/linear_source.hpp"

namespace tegrec::teg {

class ArrayEvaluator {
 public:
  /// An evaluator over no modules; assign() a port snapshot before use.
  ArrayEvaluator() = default;

  /// Snapshots module ports (teg::module_ports' output or a TegArray); the
  /// evaluator owns its data and stays valid after the ports are destroyed.
  explicit ArrayEvaluator(std::span<const LinearSource> ports);

  /// Re-snapshots in place: the per-step path, which reuses the prefix
  /// buffers (no allocation once they have grown to the array size).
  void assign(std::span<const LinearSource> ports);

  std::size_t size() const { return conductance_prefix_.size() - 1; }

  /// True when the host CPU supports AVX2 (false off x86).  A host fact
  /// only: no scoring code depends on it.
  static bool simd_available();

  /// Port model of a configuration's series string of parallel groups.
  LinearSource string_equivalent(const ArrayConfig& config) const;

  /// Same port model from raw group starts (first must be 0, strictly
  /// increasing, all < size(); the last group runs to the end).  This is
  /// the streaming hot path: EHTR scores candidates straight out of the
  /// partition backtrack without materialising an ArrayConfig per
  /// candidate.  Bit-identical to the ArrayConfig overload.
  LinearSource string_equivalent(std::span<const std::size_t> group_starts) const;

  /// Sum of per-module MPPs: the P_ideal normaliser (config-independent).
  double ideal_power_w() const { return ideal_power_w_; }

 private:
  std::vector<double> conductance_prefix_{0.0};  ///< prefix sums of 1/R_i
  std::vector<double> norton_prefix_{0.0};       ///< prefix sums of Voc_i/R_i
  double ideal_power_w_ = 0.0;
};

}  // namespace tegrec::teg
