// Scalar parameter sweeps over the end-to-end comparison.
//
// Answers "how does the reconfiguration gain move with X?" for a scalar X
// of the trace-generator configuration (surface coupling, heat-transfer
// coefficient, module count, ambient...).  X is one of the registered
// parameter names below; a sweep runs as an ExperimentSpec with
// `sweep.parameter = <name>` through the ExperimentService, so every sweep
// has a content address and is cached like any other study.  The sweep
// returns one point per value with the headline quantities.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "thermal/trace.hpp"

namespace tegrec::sim {

struct SweepPoint {
  double value = 0.0;
  double dnor_energy_j = 0.0;
  double baseline_energy_j = 0.0;
  double gain = 0.0;  ///< DNOR/baseline - 1
  double dnor_ratio_to_ideal = 0.0;
};

/// Registered, content-addressable sweep parameters, sorted: the
/// vocabulary ExperimentSpec sweep files use (`sweep.parameter = <name>`).
std::vector<std::string> sweep_parameter_names();

namespace detail {

/// The actual sweep engine, uncached and synchronous (run_experiment calls
/// this; per-point comparisons use run_comparison_direct).  `parameter`
/// must be one of sweep_parameter_names(); every value is written into a
/// copy of `base` before any point runs, so an unknown name or a value
/// outside the parameter's range throws std::invalid_argument up front.
/// Points are independent simulations evaluated across `num_threads`
/// workers (0 = one per hardware thread, 1 = serial); each point writes
/// only its own output slot, so the result is bit-identical for any thread
/// count.
std::vector<SweepPoint> sweep_direct(const thermal::TraceGeneratorConfig& base,
                                     const std::vector<double>& values,
                                     const std::string& parameter,
                                     const ComparisonOptions& comparison,
                                     std::size_t num_threads);

}  // namespace detail

}  // namespace tegrec::sim
