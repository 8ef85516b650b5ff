#include "sim/checkpoint.hpp"

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/dnor.hpp"
#include "core/ehtr.hpp"
#include "core/fixed_baseline.hpp"
#include "core/inor.hpp"
#include "sim/run_table.hpp"
#include "sim/spec.hpp"
#include "util/field_io.hpp"

namespace tegrec::sim {

namespace {

const std::string kMagic =
    "# tegrec-checkpoint v" + std::to_string(kCheckpointSchemaVersion);

const std::vector<std::pair<StreamScheme, const char*>> kSchemeNames = {
    {StreamScheme::kDnor, "dnor"},
    {StreamScheme::kInor, "inor"},
    {StreamScheme::kEhtr, "ehtr"},
    {StreamScheme::kBaseline, "baseline"}};

static_assert(util::field_count<StreamConfig>() == 5,
              "bind(FieldIo&, StreamConfig&): StreamConfig gained or lost a "
              "field; bind it, then update this count");

// The configuration stamp.  The physics options reuse the experiment-spec
// bindings (execution hints excluded from the stamp), under "sim.".
void bind(util::FieldIo& io, StreamConfig& c) {
  io.enum_field("scheme", c.scheme, kSchemeNames);
  io.field("control_period_s", c.control_period_s);
  io.field("dt_s", c.dt_s);
  io.field("num_modules", c.num_modules);
  const util::FieldIo::Scope sim(io, "sim.");
  bind(io, c.sim);
}

static_assert(util::field_count<StepperState>() == 7,
              "bind(FieldIo&, StepperState&): StepperState gained or lost a "
              "field; bind it, then update this count");

// The checkpoint head: StepperState's scalars.  Its controller_state and
// partial follow as a counted block and a run (sim/run_table.hpp).
void bind(util::FieldIo& io, StepperState& s) {
  io.field("steps_consumed", s.steps_consumed);
  io.field("has_fabric", s.has_fabric);
  io.field("fabric_group_starts", s.fabric_group_starts);
  io.field("battery_soc", s.battery_soc);
  io.field("battery_energy_j", s.battery_energy_j);
}

constexpr std::string_view kAlgorithmPrefix = "algorithm = ";

/// Kept text of the last rendered entry, without its '\n'.
std::string_view last_rendered(const std::string& text, std::size_t last) {
  return std::string_view(text).substr(last, text.size() - last - 1);
}

}  // namespace

std::string stream_scheme_name(StreamScheme scheme) {
  for (const auto& [value, name] : kSchemeNames) {
    if (value == scheme) return name;
  }
  throw std::logic_error("stream_scheme_name: unmapped scheme");
}

StreamScheme parse_stream_scheme(const std::string& name) {
  for (const auto& [value, spelled] : kSchemeNames) {
    if (name == spelled) return value;
  }
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
  util::FieldIo io(out, /*include_exec=*/false);
  // bind only mutates in read mode.
  bind(io, const_cast<StreamConfig&>(config));
  return out;
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
  util::append_counted_lines(out, "# config lines = ", fingerprint_text);
  util::FieldIo head(out);
  bind(head, const_cast<StepperState&>(state));
  util::append_counted_lines(out, "# controller lines = ",
                             state.controller_state);
  append_run_head(out, state.partial, kAlgorithmPrefix);

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

DecodedCheckpoint decode_checkpoint(
    const std::string& text, const std::string& expected_fingerprint_text) {
  util::LineReader lines(text, "checkpoint");
  if (lines.next() != kMagic) {
    lines.fail(
        "bad magic (not a checkpoint, or written by an incompatible schema "
        "version)");
  }
  if (lines.counted_lines("# config lines = ") != expected_fingerprint_text) {
    lines.fail(
        "configuration stamp mismatch — this checkpoint was written under a "
        "different stream configuration and cannot resume here");
  }
  DecodedCheckpoint out;
  util::FieldIo head(lines);
  bind(head, out.state);
  out.state.controller_state = lines.counted_lines("# controller lines = ");
  out.state.partial = read_run(lines, kAlgorithmPrefix);
  if (out.state.partial.steps.size() != out.state.steps_consumed) {
    lines.fail("steps_consumed does not match the step table");
  }
  const std::size_t extra = lines.expect_count("# extra lines = ");
  for (std::size_t i = 0; i < extra; ++i) {
    out.extra_lines.emplace_back(lines.next());
  }
  lines.expect_end();
  return out;
}

}  // namespace tegrec::sim
