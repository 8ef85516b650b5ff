// Result formatting shared by the benches and examples.
#pragma once

#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace tegrec::sim {

/// Renders the Table I layout (rows: energy output, switch overhead, then
/// switch events and ratio to ideal) for a set of completed runs, in the
/// given order.  Table I's runtime row is a wall-clock measurement, so it
/// is printed by the bench that times the controllers, not here.
std::string render_table1(const std::vector<SimulationResult>& runs);

/// Renders a per-step power timeline (Fig. 6) as CSV-ish aligned columns:
/// time, one power column per run, plus the ideal power from the first run.
/// `stride` thins the rows for readability.
std::string render_power_timeline(const std::vector<SimulationResult>& runs,
                                  std::size_t stride = 1);

/// Renders the power/ideal ratio timeline (Fig. 7); DNOR switch points can
/// be located via the 'sw' marker column of the corresponding run.
std::string render_ratio_timeline(const std::vector<SimulationResult>& runs,
                                  std::size_t stride = 1);

}  // namespace tegrec::sim
