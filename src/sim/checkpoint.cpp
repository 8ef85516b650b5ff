#include "sim/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/dnor.hpp"
#include "core/ehtr.hpp"
#include "core/fixed_baseline.hpp"
#include "core/inor.hpp"
#include "sim/spec.hpp"
#include "util/atomic_file.hpp"
#include "util/csv.hpp"
#include "util/double_format.hpp"
#include "util/float_cmp.hpp"
#include "util/hash.hpp"
#include "util/parse.hpp"

namespace tegrec::sim {

namespace {

constexpr const char* kMagic = "# tegrec-checkpoint v1";

// ----------------------------------------------------------------- encode
//
// Same line dialect as sim/result_io.cpp: `key = value` scalars plus
// `# table rows = N` CSV tables at exact precision, so every double
// round-trips bit-exactly and a restored run continues the original
// stream bit for bit.

void append_kv(std::string& out, std::string_view key, std::string_view value) {
  out += key;
  out += " = ";
  out += value;
  out += '\n';
}

void append_double_kv(std::string& out, std::string_view key, double v) {
  out += key;
  out += " = ";
  util::append_double(out, v);
  out += '\n';
}

/// "# <what> lines = N" followed by `text`, whose N lines it counts.
void append_counted_block(std::string& out, std::string_view what,
                          const std::string& text) {
  out += "# ";
  out += what;
  out += " lines = ";
  out += std::to_string(std::count(text.begin(), text.end(), '\n'));
  out += '\n';
  out += text;
}

template <std::size_t N>
void append_table_head(std::string& out, std::size_t rows,
                       const std::array<const char*, N>& columns) {
  out += "# table rows = ";
  out += std::to_string(rows);
  out += '\n';
  for (std::size_t i = 0; i < N; ++i) {
    if (i > 0) out += ',';
    out += columns[i];
  }
  out += '\n';
}

// Field-complete serialisations of SimulationResult and StepRecord — the
// tegrec_lint cache-key rule cross-checks both structs (and StepperState
// and StreamConfig) against this file, so growing any of them without
// extending the codec fails the lint gate.
constexpr std::array<const char*, 10> kSummaryColumns = {
    "energy_output_j",   "switch_overhead_j",
    "avg_runtime_ms",    "runtime_per_invocation_ms",
    "ideal_energy_j",    "num_invocations",
    "num_switch_events", "total_switch_actuations",
    "battery_energy_j",  "final_soc"};

constexpr std::array<const char*, 9> kStepColumns = {
    "time_s",            "gross_power_w",     "net_power_w",
    "ideal_power_w",     "invoked",           "switched",
    "switch_actuations", "overhead_energy_j", "compute_time_s"};

void append_summary_table(std::string& out, const SimulationResult& run) {
  append_table_head(out, 1, kSummaryColumns);
  const double cells[] = {run.energy_output_j,
                          run.switch_overhead_j,
                          run.avg_runtime_ms,
                          run.runtime_per_invocation_ms,
                          run.ideal_energy_j,
                          static_cast<double>(run.num_invocations),
                          static_cast<double>(run.num_switch_events),
                          static_cast<double>(run.total_switch_actuations),
                          run.battery_energy_j,
                          run.final_soc};
  util::append_csv_row(out, cells, util::kCsvExactPrecision);
}

void append_step_row(std::string& out, const StepRecord& s) {
  const double cells[] = {s.time_s,
                          s.gross_power_w,
                          s.net_power_w,
                          s.ideal_power_w,
                          s.invoked ? 1.0 : 0.0,
                          s.switched ? 1.0 : 0.0,
                          static_cast<double>(s.switch_actuations),
                          s.overhead_energy_j,
                          s.compute_time_s};
  util::append_csv_row(out, cells, util::kCsvExactPrecision);
}

/// Kept text of the last rendered entry, without its '\n'.
std::string_view last_rendered(const std::string& text, std::size_t last) {
  return std::string_view(text).substr(last, text.size() - last - 1);
}

// ----------------------------------------------------------------- decode

class LineReader {
 public:
  explicit LineReader(const std::string& text) : is_(text) {}

  std::string next() {
    std::string line;
    if (!std::getline(is_, line)) {
      throw std::runtime_error("checkpoint truncated");
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return line;
  }

  /// True once every line has been consumed.
  bool exhausted() {
    return is_.peek() == std::istringstream::traits_type::eof();
  }

  /// Consumes a "<prefix><suffix>" line and returns the suffix.
  std::string expect_prefix(const std::string& prefix) {
    const std::string line = next();
    if (line.rfind(prefix, 0) != 0) {
      throw std::runtime_error("checkpoint: expected '" + prefix +
                               "', got '" + line + "'");
    }
    return line.substr(prefix.size());
  }

  std::string expect_kv(const std::string& key) {
    return expect_prefix(key + " = ");
  }

  util::CsvTable read_table() {
    const std::size_t rows = static_cast<std::size_t>(
        util::parse_u64(expect_prefix("# table rows = ")));
    std::string csv = next();  // header
    csv += '\n';
    for (std::size_t i = 0; i < rows; ++i) {
      csv += next();
      csv += '\n';
    }
    util::CsvTable table = util::csv_from_string(csv);
    if (table.rows.size() != rows) {
      throw std::runtime_error("checkpoint: table row count mismatch");
    }
    return table;
  }

 private:
  std::istringstream is_;
};

double cell(const util::CsvTable& table, std::size_t row,
            const std::string& name) {
  for (std::size_t c = 0; c < table.header.size(); ++c) {
    if (table.header[c] == name) return table.rows.at(row).at(c);
  }
  throw std::runtime_error("checkpoint: missing column " + name);
}

SimulationResult decode_partial(LineReader& reader) {
  SimulationResult run;
  run.algorithm = reader.expect_kv("algorithm");
  const util::CsvTable summary = reader.read_table();
  if (summary.rows.size() != 1) {
    throw std::runtime_error("checkpoint: bad summary table");
  }
  run.energy_output_j = cell(summary, 0, "energy_output_j");
  run.switch_overhead_j = cell(summary, 0, "switch_overhead_j");
  run.avg_runtime_ms = cell(summary, 0, "avg_runtime_ms");
  run.runtime_per_invocation_ms = cell(summary, 0, "runtime_per_invocation_ms");
  run.ideal_energy_j = cell(summary, 0, "ideal_energy_j");
  run.num_invocations =
      static_cast<std::size_t>(cell(summary, 0, "num_invocations"));
  run.num_switch_events =
      static_cast<std::size_t>(cell(summary, 0, "num_switch_events"));
  run.total_switch_actuations =
      static_cast<std::size_t>(cell(summary, 0, "total_switch_actuations"));
  run.battery_energy_j = cell(summary, 0, "battery_energy_j");
  run.final_soc = cell(summary, 0, "final_soc");

  const util::CsvTable steps = reader.read_table();
  run.steps.resize(steps.rows.size());
  for (std::size_t i = 0; i < steps.rows.size(); ++i) {
    StepRecord& s = run.steps[i];
    s.time_s = cell(steps, i, "time_s");
    s.gross_power_w = cell(steps, i, "gross_power_w");
    s.net_power_w = cell(steps, i, "net_power_w");
    s.ideal_power_w = cell(steps, i, "ideal_power_w");
    // 0/1 flags round-tripped at exact precision: bit-value compare.
    s.invoked = !util::is_exactly_zero(cell(steps, i, "invoked"));
    s.switched = !util::is_exactly_zero(cell(steps, i, "switched"));
    s.switch_actuations =
        static_cast<std::size_t>(cell(steps, i, "switch_actuations"));
    s.overhead_energy_j = cell(steps, i, "overhead_energy_j");
    s.compute_time_s = cell(steps, i, "compute_time_s");
  }
  return run;
}

}  // namespace

std::string stream_scheme_name(StreamScheme scheme) {
  switch (scheme) {
    case StreamScheme::kDnor:
      return "dnor";
    case StreamScheme::kInor:
      return "inor";
    case StreamScheme::kEhtr:
      return "ehtr";
    case StreamScheme::kBaseline:
      return "baseline";
  }
  throw std::logic_error("stream_scheme_name: unmapped scheme");
}

StreamScheme parse_stream_scheme(const std::string& name) {
  if (name == "dnor") return StreamScheme::kDnor;
  if (name == "inor") return StreamScheme::kInor;
  if (name == "ehtr") return StreamScheme::kEhtr;
  if (name == "baseline") return StreamScheme::kBaseline;
  throw std::invalid_argument(
      "unknown stream scheme '" + name +
      "' (expected dnor, inor, ehtr, or baseline)");
}

std::unique_ptr<core::Reconfigurer> make_stream_controller(
    const StreamConfig& config) {
  if (config.num_modules == 0) {
    throw std::invalid_argument("make_stream_controller: num_modules == 0");
  }
  const teg::DeviceParams& device = config.sim.device;
  const power::ConverterParams& charger = config.sim.converter;
  switch (config.scheme) {
    case StreamScheme::kDnor: {
      core::DnorParams p;
      p.control_period_s = config.control_period_s;
      return std::make_unique<core::DnorReconfigurer>(device, charger, p);
    }
    case StreamScheme::kInor:
      return std::make_unique<core::InorReconfigurer>(device, charger,
                                                      config.control_period_s);
    case StreamScheme::kEhtr:
      return std::make_unique<core::EhtrReconfigurer>(
          device, charger, config.control_period_s, config.sim.num_threads,
          config.sim.ehtr_max_groups, config.sim.ehtr_warm_start,
          config.sim.ehtr_warm_width);
    case StreamScheme::kBaseline:
      return std::make_unique<core::FixedBaselineReconfigurer>(
          core::FixedBaselineReconfigurer::square_grid(config.num_modules));
  }
  throw std::logic_error("make_stream_controller: unmapped scheme");
}

std::string stream_config_fingerprint_text(const StreamConfig& config) {
  std::string out;
  append_kv(out, "scheme", stream_scheme_name(config.scheme));
  append_double_kv(out, "control_period_s", config.control_period_s);
  append_double_kv(out, "dt_s", config.dt_s);
  append_kv(out, "num_modules", std::to_string(config.num_modules));
  // The physics options reuse the experiment-spec bindings (execution
  // hints excluded there), one "sim." prefix per line.
  std::istringstream sim_lines(simulation_options_fingerprint_text(config.sim));
  std::string line;
  while (std::getline(sim_lines, line)) {
    out += "sim.";
    out += line;
    out += '\n';
  }
  return out;
}

std::string stream_config_fingerprint(const StreamConfig& config) {
  std::string text = stream_config_fingerprint_text(config);
  text += "checkpoint_schema_version = " +
          std::to_string(kCheckpointSchemaVersion) + "\n";
  const std::uint64_t a = util::fnv1a64(text, util::kFnv1aOffsetBasis);
  const std::uint64_t b = util::fnv1a64(text, util::kFnv1aAltBasis);
  return util::hex64(a) + util::hex64(b);
}

std::string CheckpointEncoder::encode(
    const StepperState& state, const std::string& fingerprint_text,
    const std::vector<std::string>& extra_lines) {
  const std::vector<StepRecord>& steps = state.partial.steps;

  // Seam guards: a history shorter than the cache, or whose last cached
  // entry no longer renders to the kept text, is not the continuation of
  // what was rendered, so that cache starts over.
  bool keep_rows = rows_.count <= steps.size();
  if (keep_rows && rows_.count > 0) {
    std::string last;
    append_step_row(last, steps[rows_.count - 1]);
    last.pop_back();
    keep_rows = last_rendered(rows_.text, rows_.last) == last;
  }
  const bool keep_extra =
      extra_.count <= extra_lines.size() &&
      (extra_.count == 0 || last_rendered(extra_.text, extra_.last) ==
                                extra_lines[extra_.count - 1]);

  // Validate before touching the cache, so a throw leaves it intact.
  for (std::size_t i = keep_extra ? extra_.count : 0; i < extra_lines.size();
       ++i) {
    if (extra_lines[i].find_first_of("\n\r") != std::string::npos) {
      throw std::invalid_argument(
          "encode_checkpoint: extra line contains a newline or carriage "
          "return");
    }
  }
  if (!keep_rows) rows_ = {};
  if (!keep_extra) extra_ = {};

  for (std::size_t i = rows_.count; i < steps.size(); ++i) {
    rows_.last = rows_.text.size();
    append_step_row(rows_.text, steps[i]);
  }
  rows_.count = steps.size();
  for (std::size_t i = extra_.count; i < extra_lines.size(); ++i) {
    extra_.last = extra_.text.size();
    extra_.text += extra_lines[i];
    extra_.text += '\n';
  }
  extra_.count = extra_lines.size();

  // The head is small and changes every call: render it fresh, then
  // splice in the kept row and line text.
  std::string out;
  out += kMagic;
  out += '\n';
  append_counted_block(out, "config", fingerprint_text);

  append_kv(out, "steps_consumed", std::to_string(state.steps_consumed));
  append_double_kv(out, "total_compute_s", state.total_compute_s);
  append_kv(out, "has_fabric", state.has_fabric ? "1" : "0");
  std::string starts;
  for (std::size_t i = 0; i < state.fabric_group_starts.size(); ++i) {
    if (i > 0) starts += ',';
    starts += std::to_string(state.fabric_group_starts[i]);
  }
  append_kv(out, "fabric_group_starts", starts);
  append_double_kv(out, "battery_soc", state.battery_soc);
  append_double_kv(out, "battery_energy_j", state.battery_energy_j);
  append_counted_block(out, "controller", state.controller_state);

  append_kv(out, "algorithm", state.partial.algorithm);
  append_summary_table(out, state.partial);
  append_table_head(out, steps.size(), kStepColumns);

  // 64 bytes cover the "# extra lines = N" and "# end" lines.
  out.reserve(out.size() + rows_.text.size() + extra_.text.size() + 64);
  out += rows_.text;
  out += "# extra lines = ";
  out += std::to_string(extra_lines.size());
  out += '\n';
  out += extra_.text;
  out += "# end\n";
  return out;
}

std::string encode_checkpoint(const StepperState& state,
                              const std::string& fingerprint_text,
                              const std::vector<std::string>& extra_lines) {
  return CheckpointEncoder{}.encode(state, fingerprint_text, extra_lines);
}

namespace {

DecodedCheckpoint decode_checkpoint_impl(
    const std::string& text, const std::string& expected_fingerprint_text) {
  if (text.empty() || text.back() != '\n') {
    throw std::runtime_error(
        "checkpoint: missing final newline (truncated?)");
  }
  LineReader reader(text);
  if (reader.next() != kMagic) {
    throw std::runtime_error(
        "checkpoint: bad magic (not a checkpoint, or written by an "
        "incompatible schema version)");
  }
  const std::size_t fp_lines = static_cast<std::size_t>(
      util::parse_u64(reader.expect_prefix("# config lines = ")));
  std::string fp_text;
  for (std::size_t i = 0; i < fp_lines; ++i) {
    fp_text += reader.next();
    fp_text += '\n';
  }
  if (fp_text != expected_fingerprint_text) {
    throw std::runtime_error(
        "checkpoint: configuration stamp mismatch — this checkpoint was "
        "written under a different stream configuration and cannot resume "
        "here");
  }

  DecodedCheckpoint out;
  out.state.steps_consumed =
      static_cast<std::size_t>(util::parse_u64(reader.expect_kv("steps_consumed")));
  out.state.total_compute_s =
      util::parse_double(reader.expect_kv("total_compute_s"));
  out.state.has_fabric = util::parse_bool(reader.expect_kv("has_fabric"));
  const std::string starts = reader.expect_kv("fabric_group_starts");
  if (!starts.empty()) {
    std::istringstream is(starts);
    std::string token;
    while (std::getline(is, token, ',')) {
      out.state.fabric_group_starts.push_back(
          static_cast<std::size_t>(util::parse_u64(token)));
    }
  }
  out.state.battery_soc = util::parse_double(reader.expect_kv("battery_soc"));
  out.state.battery_energy_j =
      util::parse_double(reader.expect_kv("battery_energy_j"));

  const std::size_t blob_lines = static_cast<std::size_t>(
      util::parse_u64(reader.expect_prefix("# controller lines = ")));
  for (std::size_t i = 0; i < blob_lines; ++i) {
    out.state.controller_state += reader.next();
    out.state.controller_state += '\n';
  }

  out.state.partial = decode_partial(reader);
  if (out.state.partial.steps.size() != out.state.steps_consumed) {
    throw std::runtime_error(
        "checkpoint: steps_consumed does not match the step table");
  }

  const std::size_t extra = static_cast<std::size_t>(
      util::parse_u64(reader.expect_prefix("# extra lines = ")));
  out.extra_lines.reserve(extra);
  for (std::size_t i = 0; i < extra; ++i) {
    out.extra_lines.push_back(reader.next());
  }
  if (reader.next() != "# end") {
    throw std::runtime_error("checkpoint: missing terminator (truncated?)");
  }
  if (!reader.exhausted()) {
    throw std::runtime_error("checkpoint: trailing data after terminator");
  }
  return out;
}

}  // namespace

DecodedCheckpoint decode_checkpoint(
    const std::string& text, const std::string& expected_fingerprint_text) {
  try {
    return decode_checkpoint_impl(text, expected_fingerprint_text);
  } catch (const std::invalid_argument& e) {
    // Field parsers (parse_u64 and friends) throw invalid_argument on a
    // malformed value; from the caller's view that is a corrupt artifact,
    // same as any other decode failure.
    throw std::runtime_error(std::string("checkpoint: malformed value: ") +
                             e.what());
  }
}

// SimStepper's disk door lives here with the codec (stepper.cpp stays
// pure simulation).

void SimStepper::save(const std::string& path,
                      const std::string& fingerprint_text,
                      const util::AtomicWriteOptions& write_options) const {
  const std::string content =
      encode_checkpoint(state(), fingerprint_text, /*extra_lines=*/{});
  util::AtomicWriteOptions options = write_options;
  if (options.fault_site.empty()) options.fault_site = "stream.checkpoint";
  util::atomic_write_file(path, content, options);
}

void SimStepper::restore(const std::string& path,
                         const std::string& fingerprint_text) {
  const std::optional<std::string> text = util::read_file_if_exists(path);
  if (!text) {
    throw std::runtime_error("SimStepper::restore: cannot read checkpoint '" +
                             path + "'");
  }
  const DecodedCheckpoint decoded = decode_checkpoint(*text, fingerprint_text);
  restore_state(decoded.state);
}

}  // namespace tegrec::sim
