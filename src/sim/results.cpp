#include "sim/results.hpp"

#include <stdexcept>

#include "util/float_cmp.hpp"
#include "util/table.hpp"

namespace tegrec::sim {

std::string render_table1(const std::vector<SimulationResult>& runs) {
  if (runs.empty()) throw std::invalid_argument("render_table1: no runs");
  std::vector<std::string> header{"Metric"};
  for (const auto& r : runs) header.push_back(r.algorithm);
  util::TextTable table(header);

  table.begin_row().add("Energy Output (J)");
  for (const auto& r : runs) table.add(r.energy_output_j, 1);
  table.begin_row().add("Switch Overhead (J)");
  for (const auto& r : runs) {
    // A never-written accumulator is an exact 0.0, not a small value.
    if (r.num_switch_events == 0 &&
        util::is_exactly_zero(r.switch_overhead_j) &&
        r.num_invocations == 0) {
      table.add(std::string("/"));  // baseline: no reconfiguration at all
    } else {
      table.add(r.switch_overhead_j, 1);
    }
  }
  table.begin_row().add("Switch events");
  for (const auto& r : runs) table.add(static_cast<long long>(r.num_switch_events));
  table.begin_row().add("Ratio to ideal");
  for (const auto& r : runs) table.add(r.ratio_to_ideal(), 3);
  return table.render();
}

namespace {

std::string timeline(const std::vector<SimulationResult>& runs, std::size_t stride,
                     bool ratio) {
  if (runs.empty()) throw std::invalid_argument("timeline: no runs");
  if (stride == 0) throw std::invalid_argument("timeline: zero stride");
  const std::size_t steps = runs.front().steps.size();
  for (const auto& r : runs) {
    if (r.steps.size() != steps) {
      throw std::invalid_argument("timeline: runs of different lengths");
    }
  }
  std::vector<std::string> header{"time_s"};
  for (const auto& r : runs) {
    header.push_back(ratio ? r.algorithm + "/Pideal" : r.algorithm + "_W");
    header.push_back(r.algorithm + "_sw");
  }
  if (!ratio) header.push_back("Pideal_W");
  util::TextTable table(header);
  for (std::size_t t = 0; t < steps; t += stride) {
    table.begin_row().add(runs.front().steps[t].time_s, 1);
    for (const auto& r : runs) {
      const StepRecord& s = r.steps[t];
      if (ratio) {
        const double denom = s.ideal_power_w > 0.0 ? s.ideal_power_w : 1.0;
        table.add(s.net_power_w / denom, 3);
      } else {
        table.add(s.net_power_w, 2);
      }
      table.add(std::string(s.switch_actuations > 0 ? "*" : ""));
    }
    if (!ratio) table.add(runs.front().steps[t].ideal_power_w, 2);
  }
  return table.render();
}

}  // namespace

std::string render_power_timeline(const std::vector<SimulationResult>& runs,
                                  std::size_t stride) {
  return timeline(runs, stride, /*ratio=*/false);
}

std::string render_ratio_timeline(const std::vector<SimulationResult>& runs,
                                  std::size_t stride) {
  return timeline(runs, stride, /*ratio=*/true);
}

}  // namespace tegrec::sim
