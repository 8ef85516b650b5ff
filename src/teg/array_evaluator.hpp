// Cached O(groups) evaluation of array configurations.
//
// A configuration's port is in_series over its groups of in_parallel over
// module ports (teg/linear_source.hpp).  Summing module ports directly costs
// O(N) per candidate, which would dominate EHTR's ~N-candidate scoring loop
// and the simulator's per-step evaluation.  The only per-module quantities
// the parallel sum consumes are the conductance 1/R_i and the Norton
// current Voc_i/R_i; both are additive, so prefix sums computed once per
// temperature distribution turn any contiguous group's Thevenin equivalent
// into two subtractions and a full ArrayConfig's port model into
// O(num_groups) work with zero heap allocation.  Prefix subtraction rounds
// differently from direct summation, so the two agree to ~1e-12 relative,
// not bit-for-bit; every production scorer uses this evaluator.
//
// The per-group arithmetic (two prefix lookups, a subtraction, a division,
// a multiplication per prefix array) is data-parallel across group
// boundaries, so the hot span overload computes group port models in fixed
// blocks through a runtime-dispatched SIMD kernel (AVX2 gathers on x86-64)
// with a scalar block kernel kept as the oracle.  Both kernels perform the
// identical exactly-rounded IEEE operations per group and feed one shared
// sequential accumulation loop, so every kernel choice returns bit-identical
// port models — enforced by tests/test_ehtr_warm.cpp.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "teg/config.hpp"
#include "teg/linear_source.hpp"

namespace tegrec::teg {

/// Which block kernel evaluates per-group port models in the span overload.
enum class ScoringKernel {
  kAuto,    ///< SIMD when the host CPU supports it, scalar otherwise
  kScalar,  ///< portable scalar blocks — the reference oracle
  kSimd,    ///< vectorised blocks (AVX2); bit-identical to kScalar
};

class ArrayEvaluator {
 public:
  /// An evaluator over no modules; assign() a port snapshot before use.
  ArrayEvaluator() = default;

  /// Snapshots module ports (teg::module_ports' output or a TegArray); the
  /// evaluator owns its data and stays valid after the ports are destroyed.
  explicit ArrayEvaluator(std::span<const LinearSource> ports);

  /// Re-snapshots in place: the per-step path, which reuses the prefix
  /// buffers (no allocation once they have grown to the array size) and
  /// keeps the selected kernel.
  void assign(std::span<const LinearSource> ports);

  std::size_t size() const { return conductance_prefix_.size() - 1; }

  /// True when the host CPU exposes the vector ISA the SIMD kernel needs
  /// (AVX2 on x86-64; false elsewhere).  Decided once at runtime — the
  /// binary carries both kernels.
  static bool simd_available();

  /// Selects the block kernel.  kSimd on a host without SIMD support
  /// throws std::invalid_argument; kAuto (the default) never throws.
  void set_kernel(ScoringKernel kernel);
  ScoringKernel kernel() const { return kernel_; }

  /// Port model of a configuration's series string of parallel groups.
  LinearSource string_equivalent(const ArrayConfig& config) const;

  /// Same port model from raw group starts (first must be 0, strictly
  /// increasing, all < size(); the last group runs to the end).  This is
  /// the streaming hot path: EHTR scores candidates straight out of the
  /// partition backtrack without materialising an ArrayConfig per
  /// candidate.  Group values are computed block-wise by the selected
  /// kernel and accumulated sequentially in group order, so the result is
  /// bit-identical for every kernel and to the ArrayConfig overload.
  LinearSource string_equivalent(std::span<const std::size_t> group_starts) const;

  /// Ideal-charger MPP power of a configuration (closed form).
  double mpp_power_w(const ArrayConfig& config) const {
    return string_equivalent(config).mpp_power_w();
  }

  /// Sum of per-module MPPs: the P_ideal normaliser (config-independent).
  double ideal_power_w() const { return ideal_power_w_; }

 private:
  std::vector<double> conductance_prefix_{0.0};  ///< prefix sums of 1/R_i
  std::vector<double> norton_prefix_{0.0};       ///< prefix sums of Voc_i/R_i
  double ideal_power_w_ = 0.0;
  ScoringKernel kernel_ = ScoringKernel::kAuto;
};

}  // namespace tegrec::teg
