// The shared run-table reader behind checkpoints and result artifacts.
//
// Both decoders read a run's count and flag cells through one checked
// conversion: a count must be an integer in [0, 2^53] and a flag exactly 0
// or 1.  Each case below writes a real artifact, edits one cell and
// decodes it: a checkpoint must throw std::runtime_error, a result
// artifact must be a cache miss.  Before the conversion was shared, both
// decoders cast these cells unchecked ("-1" read as 2^64 - 1, an empty
// cell as 2^63, "2.5" as 2, "0.5" as true).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/result_io.hpp"
#include "sim/run_table.hpp"
#include "sim/spec.hpp"
#include "sim/stepper.hpp"
#include "thermal/trace.hpp"

namespace tegrec::sim {
namespace {

/// `text` with the cell in `column` of the first data row after the header
/// line that starts with `header_start` replaced by `value`.
std::string with_cell(const std::string& text, const std::string& header_start,
                      const std::string& column, const std::string& value) {
  const std::size_t header = text.find("\n" + header_start) + 1;
  const std::size_t header_end = text.find('\n', header);
  const std::string names = text.substr(header, header_end - header);
  std::size_t index = 0;
  for (std::size_t at = 0; at < names.find(column); ++at) {
    index += names[at] == ',' ? 1 : 0;
  }
  std::size_t cell = header_end + 1;
  for (std::size_t i = 0; i < index; ++i) cell = text.find(',', cell) + 1;
  const std::size_t cell_end = text.find_first_of(",\n", cell);
  std::string edited = text;
  edited.replace(cell, cell_end - cell, value);
  return edited;
}

struct Probe {
  std::string header_start;
  std::string column;
  std::string value;
};

std::vector<Probe> probes() {
  std::vector<Probe> out;
  for (const char* bad : {"-1", "", "1e300", "2.5", "-0"}) {
    out.push_back({"time_s,", "switch_actuations", bad});
    out.push_back({"energy_output_j,", "num_invocations", bad});
  }
  for (const char* bad : {"0.5", "-1", "7", "", "-0"}) {
    out.push_back({"time_s,", "invoked", bad});
    out.push_back({"time_s,", "switched", bad});
  }
  return out;
}

TEST(RunTable, CheckpointRejectsOutOfRangeCountsAndFlags) {
  thermal::TraceGeneratorConfig generator;
  generator.layout.num_modules = 12;
  generator.segments = {{thermal::DriveSegment::Kind::kUrban, 5.0, 32.0, 0.0}};
  const thermal::TemperatureTrace trace = thermal::generate_trace(generator);
  StreamConfig config;
  config.scheme = StreamScheme::kInor;
  config.dt_s = trace.dt_s();
  config.num_modules = trace.num_modules();
  const auto controller = make_stream_controller(config);
  SimStepper stepper(*controller, config.dt_s, config.num_modules, config.sim);
  for (std::size_t t = 0; t < 4; ++t) {
    TraceSample sample;
    sample.time_s = static_cast<double>(t) * trace.dt_s();
    sample.module_temps_c = trace.step_temperatures(t);
    sample.ambient_c = trace.ambient_c(t);
    stepper.step(sample);
  }
  const std::string stamp = stream_config_fingerprint_text(config);
  const std::string text = encode_checkpoint(stepper.state(), stamp);
  ASSERT_NO_THROW(decode_checkpoint(text, stamp));
  // The editor itself is sound: a valid value decodes.
  ASSERT_NO_THROW(
      decode_checkpoint(with_cell(text, "time_s,", "invoked", "0"), stamp));

  for (const Probe& p : probes()) {
    EXPECT_THROW(
        decode_checkpoint(with_cell(text, p.header_start, p.column, p.value),
                          stamp),
        std::runtime_error)
        << p.column << " = '" << p.value << "'";
  }
}

TEST(RunTable, ResultArtifactMissesOnOutOfRangeCountsAndFlags) {
  ExperimentSpec spec;
  spec.trace.generator.layout.num_modules = 16;
  spec.trace.generator.segments = {
      {thermal::DriveSegment::Kind::kUrban, 5.0, 30.0, 0.0}};
  spec.comparison.include_inor = false;
  spec.comparison.include_ehtr = false;
  const std::string fp = spec.fingerprint_text();
  const std::string text = encode_result(run_experiment(spec), fp);
  ASSERT_TRUE(decode_result(text, fp).has_value());
  ASSERT_TRUE(
      decode_result(with_cell(text, "time_s,", "switched", "1"), fp).has_value());

  for (const Probe& p : probes()) {
    EXPECT_FALSE(
        decode_result(with_cell(text, p.header_start, p.column, p.value), fp)
            .has_value())
        << p.column << " = '" << p.value << "'";
  }
}

// Every double a run table holds reads back with its bits: -0, the
// subnormals and the infinities as well as NaN, which travels as an empty
// cell (or spelled "nan", which reads the same).
TEST(RunTable, SpecialDoublesRoundTrip) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {-0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -2.2250738585072009e-308,
                             kInf,
                             -kInf,
                             std::numeric_limits<double>::quiet_NaN(),
                             1.0 / 3.0};
  SimulationResult run;
  run.algorithm = "probe";
  run.energy_output_j = specials[0];
  run.switch_overhead_j = specials[1];
  run.ideal_energy_j = specials[4];
  run.battery_energy_j = specials[5];
  run.final_soc = specials[6];
  for (const double v : specials) {
    StepRecord step;
    step.time_s = v;
    step.gross_power_w = v;
    step.net_power_w = v;
    step.ideal_power_w = v;
    step.overhead_energy_j = v;
    run.steps.push_back(step);
  }
  std::string text;
  append_run(text, run, "algorithm = ");
  const auto bits = [](double v) {
    return std::isnan(v) ? std::uint64_t{0} : std::bit_cast<std::uint64_t>(v);
  };
  for (const std::string& edited :
       {text, with_cell(text, "energy_output_j,", "battery_energy_j", "nan")}) {
    util::LineReader lines(edited, "run table");
    const SimulationResult back = read_run(lines, "algorithm = ");
    lines.finish();
    EXPECT_EQ(bits(back.energy_output_j), bits(run.energy_output_j));
    EXPECT_EQ(bits(back.switch_overhead_j), bits(run.switch_overhead_j));
    EXPECT_EQ(bits(back.ideal_energy_j), bits(run.ideal_energy_j));
    EXPECT_TRUE(std::isnan(back.battery_energy_j));
    EXPECT_EQ(bits(back.final_soc), bits(run.final_soc));
    ASSERT_EQ(back.steps.size(), run.steps.size());
    for (std::size_t i = 0; i < run.steps.size(); ++i) {
      const StepRecord& a = run.steps[i];
      const StepRecord& b = back.steps[i];
      EXPECT_EQ(bits(b.time_s), bits(a.time_s)) << i;
      EXPECT_EQ(bits(b.gross_power_w), bits(a.gross_power_w)) << i;
      EXPECT_EQ(bits(b.net_power_w), bits(a.net_power_w)) << i;
      EXPECT_EQ(bits(b.ideal_power_w), bits(a.ideal_power_w)) << i;
      EXPECT_EQ(bits(b.overhead_energy_j), bits(a.overhead_energy_j)) << i;
      EXPECT_EQ(std::isnan(b.time_s), std::isnan(a.time_s)) << i;
    }
  }
}

// Columns are looked up by name, so a table with columns this build no
// longer writes still reads: result artifacts from before measured time
// left the run tables (they carried avg_runtime_ms, runtime_per_
// invocation_ms and compute_time_s) stay valid cache hits.
TEST(RunTable, ExtraColumnsAreIgnored) {
  SimulationResult run;
  run.algorithm = "probe";
  run.energy_output_j = 1.5;
  run.num_invocations = 2;
  for (int i = 0; i < 3; ++i) {
    StepRecord step;
    step.time_s = 0.5 * static_cast<double>(i);
    step.net_power_w = 1.0 / 3.0;
    step.invoked = i != 1;
    run.steps.push_back(step);
  }
  std::string text;
  append_run(text, run, "algorithm = ");

  // Append a measured-time column to the header and rows of both tables.
  std::string widened;
  bool header_next = false;
  std::size_t rows_left = 0;
  for (std::size_t start = 0; start < text.size();) {
    const std::size_t end = text.find('\n', start);
    const std::string line = text.substr(start, end - start);
    widened += line;
    if (header_next) {
      widened += ",compute_time_s";
      header_next = false;
    } else if (rows_left > 0) {
      widened += ",0.000125";
      --rows_left;
    }
    if (line.rfind("# table rows = ", 0) == 0) {
      rows_left = std::stoul(line.substr(15));
      header_next = true;
    }
    widened += '\n';
    start = end + 1;
  }
  ASSERT_NE(widened, text);

  util::LineReader lines(widened, "run table");
  const SimulationResult back = read_run(lines, "algorithm = ");
  lines.finish();
  std::string again;
  append_run(again, back, "algorithm = ");
  EXPECT_EQ(again, text);
}

}  // namespace
}  // namespace tegrec::sim
