// Standard multi-scheme experiment harness.
//
// Wraps the recurring evaluation pattern of the paper: run DNOR, INOR,
// EHTR and the fixed baseline over one trace with shared device/charger
// parameters, and expose the comparison quantities (energy gain over
// baseline, overhead and runtime ratios) that Table I and Figs. 6-7 are
// built from.  Benches, examples and integration tests all share this.
#pragma once

#include <vector>

#include "sim/simulator.hpp"

namespace tegrec::sim {

/// Which controllers to include in a comparison run.
struct ComparisonOptions {
  SimulationOptions sim;
  bool include_dnor = true;
  bool include_inor = true;
  /// EHTR is subquadratic per invocation since the monotone-DP rewrite:
  /// O(max_n * N log N) for the partition DP plus O(groups) per candidate
  /// scored (candidates stream through the scorer, so memory is O(N)).
  /// At farm scale, bound the DP parent arena with `sim.ehtr_max_groups`
  /// and spread candidate scoring across `sim.num_threads`.
  bool include_ehtr = true;
  bool include_baseline = true;
  double control_period_s = 0.5;  ///< INOR/EHTR cadence (paper: 0.5 s per [5])
};

/// Results in a fixed order: DNOR, INOR, EHTR, Baseline (present ones only).
struct ComparisonResult {
  std::vector<SimulationResult> runs;

  /// Finds a run by algorithm name; throws std::out_of_range if absent.
  const SimulationResult& by_name(const std::string& name) const;

  /// DNOR energy gain over the fixed baseline (the paper's "+30%"), as a
  /// fraction; requires both runs to be present.  NaN when the baseline
  /// harvested nothing (the gain is undefined, not zero — serialises as an
  /// empty CSV cell / JSON null like every unmeasured value).
  double dnor_gain_over_baseline() const;
  /// EHTR/DNOR switch-overhead ratio (the paper's "~100x").
  double overhead_reduction_ratio() const;
};

/// Runs the standard four-scheme comparison on a trace.
///
/// Thin blocking wrapper over the shared ExperimentService (sim/service.hpp):
/// the trace is content-hashed into an ExperimentSpec, submitted, and waited
/// on, so repeated calls with an identical (trace, options) pair are served
/// from the result cache instead of re-simulating.  Results are bit-identical
/// to detail::run_comparison_direct for any service worker count.
ComparisonResult run_standard_comparison(const thermal::TemperatureTrace& trace,
                                         const ComparisonOptions& options = {});

namespace detail {

/// The actual comparison engine, uncached and synchronous.  Service workers
/// and the Monte-Carlo / sweep inner loops call this directly (an inner loop
/// must never re-enter the service: its job already occupies a worker).
ComparisonResult run_comparison_direct(const thermal::TemperatureTrace& trace,
                                       const ComparisonOptions& options);

}  // namespace detail

}  // namespace tegrec::sim
