#include "sim/run_table.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "util/double_format.hpp"
#include "util/float_cmp.hpp"
#include "util/parse.hpp"

namespace tegrec::sim {

namespace {

// Field-complete column lists of SimulationResult and StepRecord: growing
// either struct fails these asserts until its column is added.  A run's
// other two fields travel outside the summary table: `algorithm` as the
// line before it, `steps` as the step table after it.
static_assert(util::field_count<SimulationResult>() == 10,
              "kSummaryColumns: SimulationResult gained or lost a field; bind "
              "it, then update this count");
static_assert(util::field_count<StepRecord>() == 8,
              "kStepColumns: StepRecord gained or lost a field; bind it, then "
              "update this count");

constexpr auto kSummaryColumns = [](auto& run, auto&& col) {
  col("energy_output_j", run.energy_output_j);
  col("switch_overhead_j", run.switch_overhead_j);
  col("ideal_energy_j", run.ideal_energy_j);
  col("num_invocations", run.num_invocations);
  col("num_switch_events", run.num_switch_events);
  col("total_switch_actuations", run.total_switch_actuations);
  col("battery_energy_j", run.battery_energy_j);
  col("final_soc", run.final_soc);
};

constexpr auto kStepColumns = [](auto& step, auto&& col) {
  col("time_s", step.time_s);
  col("gross_power_w", step.gross_power_w);
  col("net_power_w", step.net_power_w);
  col("ideal_power_w", step.ideal_power_w);
  col("invoked", step.invoked);
  col("switched", step.switched);
  col("switch_actuations", step.switch_actuations);
  col("overhead_energy_j", step.overhead_energy_j);
};

/// Every integer up to 2^53 is a double; past it counts lose precision.
constexpr double kMaxExactCount = 9007199254740992.0;

}  // namespace

TableBlock::TableBlock(util::LineReader& lines) : lines_(lines) {
  rows_ = lines.expect_count("# table rows = ");
  util::for_each_field(lines.next(), ',',
                       [&](std::string_view name) { header_.push_back(name); });
  for (std::size_t r = 0; r < rows_; ++r) {
    std::size_t width = 0;
    util::for_each_field(lines.next(), ',', [&](std::string_view cell) {
      values_.push_back(util::parse_csv_cell(cell));
      ++width;
    });
    if (width != header_.size()) {
      lines.fail("table row width " + std::to_string(width) +
                 " differs from header width " +
                 std::to_string(header_.size()));
    }
  }
}

std::size_t TableBlock::column(std::string_view name) const {
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (header_[c] == name) return c;
  }
  lines_.fail("missing column " + std::string(name));
}

void TableBlock::read(std::size_t row, std::size_t col,
                      std::size_t& out) const {
  const double v = cell(row, col);
  // NaN (an empty cell) fails the first comparison.
  if (!(v >= 0.0 && v <= kMaxExactCount) || std::signbit(v) ||
      !util::exactly_equal(std::trunc(v), v)) {
    lines_.fail("column " + std::string(header_[col]) +
                " needs a count in [0, 2^53], got " + util::format_double(v));
  }
  out = static_cast<std::size_t>(v);
}

void TableBlock::read(std::size_t row, std::size_t col, bool& out) const {
  const double v = cell(row, col);
  out = util::exactly_equal(v, 1.0);
  if (std::signbit(v) || !(out || util::is_exactly_zero(v))) {
    lines_.fail("column " + std::string(header_[col]) +
                " needs a 0/1 flag, got " + util::format_double(v));
  }
}

void append_run_head(std::string& out, const SimulationResult& run,
                     std::string_view algorithm_prefix) {
  out += algorithm_prefix;
  out += run.algorithm;
  out += '\n';
  append_table_head<SimulationResult>(out, 1, kSummaryColumns);
  append_table_row(out, run, kSummaryColumns);
  append_table_head<StepRecord>(out, run.steps.size(), kStepColumns);
}

void append_step_row(std::string& out, const StepRecord& step) {
  append_table_row(out, step, kStepColumns);
}

void append_run(std::string& out, const SimulationResult& run,
                std::string_view algorithm_prefix) {
  append_run_head(out, run, algorithm_prefix);
  for (const StepRecord& step : run.steps) append_step_row(out, step);
}

SimulationResult read_run(util::LineReader& lines,
                          std::string_view algorithm_prefix) {
  std::string algorithm(lines.expect_prefix(algorithm_prefix));
  std::vector<SimulationResult> summary =
      read_table<SimulationResult>(lines, kSummaryColumns);
  if (summary.size() != 1) lines.fail("bad summary table");
  SimulationResult run = std::move(summary.front());
  run.algorithm = std::move(algorithm);
  run.steps = read_table<StepRecord>(lines, kStepColumns);
  return run;
}

}  // namespace tegrec::sim
