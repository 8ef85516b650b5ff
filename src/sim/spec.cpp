#include "sim/spec.hpp"

#include <cinttypes>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "sim/telemetry.hpp"
#include "thermal/scenario.hpp"
#include "util/field_io.hpp"
#include "util/hash.hpp"
#include "util/parse.hpp"

namespace tegrec::sim {

using util::FieldIo;

namespace {

std::map<std::string, std::string> split_lines(const std::string& text) {
  std::map<std::string, std::string> values;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view stripped = util::trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const std::size_t eq = stripped.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("experiment spec: line " +
                                  std::to_string(line_no) +
                                  " is not 'key = value': '" +
                                  std::string(stripped) + "'");
    }
    const std::string key(util::trim(stripped.substr(0, eq)));
    const std::string value(util::trim(stripped.substr(eq + 1)));
    if (key.empty()) {
      throw std::invalid_argument("experiment spec: empty key on line " +
                                  std::to_string(line_no));
    }
    if (!values.emplace(key, value).second) {
      throw std::invalid_argument("experiment spec: duplicate key '" + key +
                                  "'");
    }
  }
  return values;
}

// -------------------------------------------------------------- bindings

const std::vector<std::pair<ExperimentKind, const char*>> kKindNames = {
    {ExperimentKind::kComparison, "comparison"},
    {ExperimentKind::kMonteCarlo, "montecarlo"},
    {ExperimentKind::kSweep, "sweep"}};

const std::vector<std::pair<TraceSource::Kind, const char*>> kSourceNames = {
    {TraceSource::Kind::kGenerated, "generated"},
    {TraceSource::Kind::kCsvFile, "csv"},
    {TraceSource::Kind::kInline, "inline"}};

// Segment kind names come from thermal::segment_kind_names(): one table
// shared with to_string, so a new kind cannot reach the enum without
// reaching the spec vocabulary.

static_assert(util::field_count<thermal::RadiatorLayout>() == 3,
              "bind(FieldIo&, RadiatorLayout&): RadiatorLayout gained or lost "
              "a field; bind it, then update this count");
static_assert(util::field_count<thermal::HeatExchangerParams>() == 2,
              "bind(FieldIo&, RadiatorLayout&): HeatExchangerParams gained or "
              "lost a field; bind it, then update this count");

void bind(FieldIo& io, thermal::RadiatorLayout& p) {
  io.field("num_modules", p.num_modules);
  io.field("surface_coupling", p.surface_coupling);
  io.field("exchanger.k_per_length_w_mk", p.exchanger.k_per_length_w_mk);
  io.field("exchanger.tube_length_m", p.exchanger.tube_length_m);
}

static_assert(util::field_count<thermal::EngineThermalParams>() == 17,
              "bind(FieldIo&, EngineThermalParams&): EngineThermalParams "
              "gained or lost a field; bind it, then update this count");

void bind(FieldIo& io, thermal::EngineThermalParams& p) {
  io.field("thermal_mass_j_k", p.thermal_mass_j_k);
  io.field("heat_to_coolant_fraction", p.heat_to_coolant_fraction);
  io.field("thermostat_open_c", p.thermostat_open_c);
  io.field("thermostat_full_c", p.thermostat_full_c);
  io.field("thermostat_leak", p.thermostat_leak);
  io.field("pump_flow_idle_lpm", p.pump_flow_idle_lpm);
  io.field("pump_flow_max_lpm", p.pump_flow_max_lpm);
  io.field("fan_air_speed_ms", p.fan_air_speed_ms);
  io.field("fan_on_c", p.fan_on_c);
  io.field("radiator_face_area_m2", p.radiator_face_area_m2);
  io.field("max_air_speed_ms", p.max_air_speed_ms);
  io.field("initial_coolant_c", p.initial_coolant_c);
  io.field("ambient_c", p.ambient_c);
  io.field("temp_noise_c", p.temp_noise_c);
  io.field("flow_noise_lpm", p.flow_noise_lpm);
  io.field("process_noise_c", p.process_noise_c);
  io.field("process_noise_reversion", p.process_noise_reversion);
}

static_assert(util::field_count<thermal::VehicleParams>() == 8,
              "bind(FieldIo&, VehicleParams&): VehicleParams gained or lost a "
              "field; bind it, then update this count");

void bind(FieldIo& io, thermal::VehicleParams& p) {
  io.field("mass_kg", p.mass_kg);
  io.field("frontal_area_m2", p.frontal_area_m2);
  io.field("drag_coefficient", p.drag_coefficient);
  io.field("rolling_resistance", p.rolling_resistance);
  io.field("air_density_kg_m3", p.air_density_kg_m3);
  io.field("driveline_efficiency", p.driveline_efficiency);
  io.field("idle_power_kw", p.idle_power_kw);
  io.field("max_engine_power_kw", p.max_engine_power_kw);
}

static_assert(util::field_count<thermal::AmbientProfile>() == 7,
              "bind(FieldIo&, AmbientProfile&): AmbientProfile gained or lost "
              "a field; bind it, then update this count");
static_assert(util::field_count<thermal::AmbientStepEvent>() == 2,
              "bind(FieldIo&, AmbientProfile&): AmbientStepEvent gained or "
              "lost a field; bind it, then update this count");

void bind(FieldIo& io, thermal::AmbientProfile& p) {
  io.field("base_c", p.base_c);
  io.field("drift_c_per_hour", p.drift_c_per_hour);
  io.field("sine_amplitude_c", p.sine_amplitude_c);
  io.field("sine_period_s", p.sine_period_s);
  io.field("noise_sigma_c", p.noise_sigma_c);
  io.field("noise_reversion", p.noise_reversion);
  std::size_t num_steps = p.steps.size();
  io.field("num_steps", num_steps);
  // resize, not assign: entries the file does not mention keep the base
  // config's values (the library defaults, or the resolved scenario when
  // trace.scenario set one) — the same missing-keys-keep-defaults rule
  // scalar fields follow.  Entries beyond the base count start fresh.
  if (io.parsing()) p.steps.resize(num_steps);
  for (std::size_t i = 0; i < num_steps; ++i) {
    FieldIo::Scope step(io, "step." + std::to_string(i) + ".");
    io.field("time_s", p.steps[i].time_s);
    io.field("delta_c", p.steps[i].delta_c);
  }
}

static_assert(util::field_count<thermal::TraceGeneratorConfig>() == 9,
              "bind(FieldIo&, TraceGeneratorConfig&): TraceGeneratorConfig "
              "gained or lost a field; bind it, then update this count");
static_assert(util::field_count<thermal::DriveSegment>() == 7,
              "bind(FieldIo&, TraceGeneratorConfig&): DriveSegment gained or "
              "lost a field; bind it, then update this count");

void bind(FieldIo& io, thermal::TraceGeneratorConfig& g, bool pin_seed) {
  {
    FieldIo::Scope layout(io, "layout.");
    bind(io, g.layout);
  }
  {
    FieldIo::Scope engine(io, "engine.");
    bind(io, g.engine);
  }
  {
    FieldIo::Scope vehicle(io, "vehicle.");
    bind(io, g.vehicle);
  }
  {
    FieldIo::Scope ambient(io, "ambient.");
    bind(io, g.ambient);
  }
  std::size_t num_segments = g.segments.size();
  io.field("num_segments", num_segments);
  // resize, not assign — see the ambient steps binding above.
  if (io.parsing()) g.segments.resize(num_segments);
  for (std::size_t i = 0; i < num_segments; ++i) {
    FieldIo::Scope segment(io, "segment." + std::to_string(i) + ".");
    io.enum_field("kind", g.segments[i].kind, thermal::segment_kind_names());
    io.field("duration_s", g.segments[i].duration_s);
    io.field("target_speed_kmh", g.segments[i].target_speed_kmh);
    io.field("grade_percent", g.segments[i].grade_percent);
    io.field("process_power_kw", g.segments[i].process_power_kw);
    io.field("process_power_end_kw", g.segments[i].process_power_end_kw);
    io.field("period_s", g.segments[i].period_s);
  }
  io.field("sample_dt_s", g.sample_dt_s);
  io.field("sim_dt_s", g.sim_dt_s);
  io.field("surface_time_constant_s", g.surface_time_constant_s);
  // A Monte-Carlo engine overwrites the base seed per sample, so it is
  // immaterial to the result; pin it in the canonical text so base
  // configs differing only in seed share one cache entry.
  std::uint64_t seed = pin_seed ? 0 : g.seed;
  io.field("seed", seed);
  if (io.parsing()) g.seed = seed;
}

static_assert(util::field_count<teg::DeviceParams>() == 6,
              "bind(FieldIo&, DeviceParams&): DeviceParams gained or lost a "
              "field; bind it, then update this count");

void bind(FieldIo& io, teg::DeviceParams& p) {
  io.field("num_couples", p.num_couples);
  io.field("seebeck_v_k_couple", p.seebeck_v_k_couple);
  io.field("internal_resistance_ohm", p.internal_resistance_ohm);
  io.field("resistance_temp_coeff", p.resistance_temp_coeff);
  io.field("reference_temp_c", p.reference_temp_c);
  io.field("max_delta_t_k", p.max_delta_t_k);
}

static_assert(util::field_count<power::ConverterParams>() == 7,
              "bind(FieldIo&, ConverterParams&): ConverterParams gained or "
              "lost a field; bind it, then update this count");

void bind(FieldIo& io, power::ConverterParams& p) {
  io.field("output_voltage_v", p.output_voltage_v);
  io.field("eta_peak", p.eta_peak);
  io.field("voltage_penalty", p.voltage_penalty);
  io.field("fixed_loss_w", p.fixed_loss_w);
  io.field("min_input_v", p.min_input_v);
  io.field("max_input_v", p.max_input_v);
  io.field("max_input_power_w", p.max_input_power_w);
}

static_assert(util::field_count<power::BatteryParams>() == 5,
              "bind(FieldIo&, BatteryParams&): BatteryParams gained or lost a "
              "field; bind it, then update this count");

void bind(FieldIo& io, power::BatteryParams& p) {
  io.field("capacity_ah", p.capacity_ah);
  io.field("charge_voltage_v", p.charge_voltage_v);
  io.field("max_charge_current_a", p.max_charge_current_a);
  io.field("internal_resistance_ohm", p.internal_resistance_ohm);
  io.field("initial_soc", p.initial_soc);
}

static_assert(util::field_count<switchfab::OverheadParams>() == 5,
              "bind(FieldIo&, OverheadParams&): OverheadParams gained or lost "
              "a field; bind it, then update this count");

void bind(FieldIo& io, switchfab::OverheadParams& p) {
  io.field("sensing_delay_s", p.sensing_delay_s);
  io.field("per_switch_delay_s", p.per_switch_delay_s);
  io.field("mppt_settle_s", p.mppt_settle_s);
  io.field("per_switch_energy_j", p.per_switch_energy_j);
  io.field("compute_budget_s", p.compute_budget_s);
}

}  // namespace

// Binds 7 of the 9 fields.  ehtr_warm_start and ehtr_warm_width only pick
// the warm or cold EHTR search, whose decisions are bit-identical
// (test_ehtr_warm), so they stay out of the spec and the fingerprint.
// make_stream_controller reads them; tests and perfbench set them.
static_assert(util::field_count<SimulationOptions>() == 9,
              "bind(FieldIo&, SimulationOptions&): SimulationOptions gained or "
              "lost a field; bind it, then update this count");

void bind(FieldIo& io, SimulationOptions& s) {
  {
    FieldIo::Scope device(io, "device.");
    bind(io, s.device);
  }
  {
    FieldIo::Scope converter(io, "converter.");
    bind(io, s.converter);
  }
  {
    FieldIo::Scope battery(io, "battery.");
    bind(io, s.battery);
  }
  {
    FieldIo::Scope overhead(io, "overhead.");
    bind(io, s.overhead);
  }
  io.field("charge_overhead", s.charge_overhead);
  io.field("ehtr_max_groups", s.ehtr_max_groups);
  io.exec_field("num_threads", s.num_threads);
}

namespace {

static_assert(util::field_count<ComparisonOptions>() == 6,
              "bind(FieldIo&, ComparisonOptions&): ComparisonOptions gained or "
              "lost a field; bind it, then update this count");

void bind(FieldIo& io, ComparisonOptions& c) {
  {
    FieldIo::Scope sim(io, "sim.");
    bind(io, c.sim);
  }
  io.field("include_dnor", c.include_dnor);
  io.field("include_inor", c.include_inor);
  io.field("include_ehtr", c.include_ehtr);
  io.field("include_baseline", c.include_baseline);
  io.field("control_period_s", c.control_period_s);
}

std::uint64_t inline_trace_hash(const thermal::TemperatureTrace& trace,
                                std::uint64_t basis) {
  std::uint64_t h = basis;
  h = util::fnv1a64_double(trace.dt_s(), h);
  const std::uint64_t dims[2] = {trace.num_modules(), trace.num_steps()};
  h = util::fnv1a64(dims, sizeof(dims), h);
  for (std::size_t t = 0; t < trace.num_steps(); ++t) {
    for (std::size_t m = 0; m < trace.num_modules(); ++m) {
      h = util::fnv1a64_double(trace.temperature_c(t, m), h);
    }
    h = util::fnv1a64_double(trace.ambient_c(t), h);
  }
  return h;
}

static_assert(util::field_count<ExperimentSpec>() == 9,
              "bind(FieldIo&, ExperimentSpec&): ExperimentSpec gained or lost "
              "a field; bind it, then update this count");
static_assert(util::field_count<TraceSource>() == 6,
              "bind(FieldIo&, ExperimentSpec&): TraceSource gained or lost a "
              "field; bind it, then update this count");

void bind_spec(FieldIo& io, ExperimentSpec& spec) {
  std::string format = "tegrec-spec-v1";
  io.field("format", format);
  if (format != "tegrec-spec-v1") {
    throw std::invalid_argument("experiment spec: unknown format '" + format +
                                "'");
  }
  int schema = kSpecSchemaVersion;
  io.field("schema", schema);
  if (schema != kSpecSchemaVersion) {
    throw std::invalid_argument("experiment spec: unsupported schema version " +
                                std::to_string(schema));
  }
  io.enum_field("kind", spec.kind, kKindNames);
  io.enum_field("trace.source", spec.trace.kind, kSourceNames);
  // A named scenario is bound before the trace.gen.* block: parsing
  // resolves the registry entry into the generator config first, so any
  // trace.gen.* keys in the same file act as overrides on top of it.
  // Emission writes the name *and* the fully resolved config — the
  // fingerprint therefore tracks the actual physics, and editing a
  // registry entry invalidates cached results rather than serving stale
  // ones under an unchanged name.
  const bool scenario_key_given = io.parsing() && io.present("trace.scenario");
  if (io.parsing() || !spec.trace.scenario_name.empty()) {
    io.field("trace.scenario", spec.trace.scenario_name);
  }
  if (scenario_key_given && spec.trace.scenario_name.empty()) {
    // An empty value would silently run the default workload — the same
    // class of bug as an unknown key, so it gets the same treatment.
    throw std::invalid_argument(
        "experiment spec: trace.scenario must name a registered scenario "
        "(or the key must be omitted)");
  }
  if (!spec.trace.scenario_name.empty()) {
    if (spec.trace.kind != TraceSource::Kind::kGenerated) {
      throw std::invalid_argument(
          "experiment spec: trace.scenario requires trace.source = generated");
    }
    if (io.parsing()) {
      spec.trace.generator = thermal::scenario(spec.trace.scenario_name);
    } else if (!thermal::has_scenario(spec.trace.scenario_name)) {
      // Emitting an unregistered name would produce canonical text that
      // from_text cannot re-parse — a fingerprint for an address nobody
      // can ever resolve.  Fail at serialisation, not at the round trip.
      throw std::invalid_argument(
          "experiment spec: scenario_name '" + spec.trace.scenario_name +
          "' is not a registered scenario (use sim::scenario_source)");
    }
  }
  // Only the active source's fields are serialised: an inactive source
  // cannot affect the result, so it must not affect the fingerprint.
  switch (spec.trace.kind) {
    case TraceSource::Kind::kGenerated: {
      FieldIo::Scope gen(io, "trace.gen.");
      bind(io, spec.trace.generator,
           /*pin_seed=*/spec.kind == ExperimentKind::kMonteCarlo);
      break;
    }
    case TraceSource::Kind::kCsvFile:
      io.field("trace.csv.path", spec.trace.csv_path);
      io.field("trace.csv.dt_s", spec.trace.csv_dt_s);
      break;
    case TraceSource::Kind::kInline: {
      if (io.parsing()) {
        throw std::invalid_argument(
            "experiment spec: inline trace sources carry their samples in "
            "memory and cannot be loaded from text");
      }
      if (!spec.trace.inline_trace) {
        throw std::invalid_argument(
            "experiment spec: inline trace source with no trace attached");
      }
      const thermal::TemperatureTrace& trace = *spec.trace.inline_trace;
      // Two independently seeded hashes: the canonical text carries the
      // trace only as this digest, so the content address must be 128 bits
      // wide like the fingerprint itself (a single 64-bit stream would be
      // the one place a constructible collision could serve a wrong
      // result).
      std::string hash =
          util::hex64(inline_trace_hash(trace, util::kFnv1aOffsetBasis)) +
          util::hex64(inline_trace_hash(trace, util::kFnv1aAltBasis));
      double dt_s = trace.dt_s();
      std::size_t num_modules = trace.num_modules();
      std::size_t num_steps = trace.num_steps();
      io.field("trace.inline.hash", hash);
      io.field("trace.inline.dt_s", dt_s);
      io.field("trace.inline.num_modules", num_modules);
      io.field("trace.inline.num_steps", num_steps);
      break;
    }
  }
  {
    FieldIo::Scope comparison(io, "comparison.");
    bind(io, spec.comparison);
  }
  if (spec.kind == ExperimentKind::kMonteCarlo) {
    io.field("mc.num_seeds", spec.mc_num_seeds);
    io.field("mc.first_seed", spec.mc_first_seed);
    io.exec_field("mc.num_threads", spec.mc_num_threads);
  }
  if (spec.kind == ExperimentKind::kSweep) {
    io.field("sweep.parameter", spec.sweep_parameter_name);
    io.field("sweep.values", spec.sweep_values);
    io.exec_field("sweep.num_threads", spec.sweep_num_threads);
  }
}

std::string emit_spec(const ExperimentSpec& spec, bool include_exec) {
  std::string text;
  FieldIo io(text, include_exec);
  // bind_spec only mutates in read mode; emit reads through the same
  // non-const reference.
  bind_spec(io, const_cast<ExperimentSpec&>(spec));
  return text;
}

}  // namespace

TraceSource scenario_source(const std::string& name) {
  TraceSource source;
  source.kind = TraceSource::Kind::kGenerated;
  source.generator = thermal::scenario(name);  // throws on unknown names
  source.scenario_name = name;
  return source;
}

std::string ExperimentSpec::canonical_text() const {
  return emit_spec(*this, /*include_exec=*/true);
}

std::string ExperimentSpec::fingerprint_of_text(
    const std::string& fingerprint_text) {
  const std::uint64_t a =
      util::fnv1a64(fingerprint_text, util::kFnv1aOffsetBasis);
  const std::uint64_t b = util::fnv1a64(fingerprint_text, util::kFnv1aAltBasis);
  return util::hex64(a) + util::hex64(b);
}

std::string ExperimentSpec::fingerprint() const {
  // Execution hints (thread counts) are excluded: results are guaranteed
  // bit-identical for every thread count, so they must share a cache key.
  const std::string text = emit_spec(*this, /*include_exec=*/false);
  if (trace.kind == TraceSource::Kind::kCsvFile) {
    // Content addressing: the cache key follows the file's bytes, not its
    // name, so editing the trace invalidates stale results.
    std::uint64_t a = util::fnv1a64(text, util::kFnv1aOffsetBasis);
    std::uint64_t b = util::fnv1a64(text, util::kFnv1aAltBasis);
    util::fnv1a64_file(trace.csv_path, a, b);
    return util::hex64(a) + util::hex64(b);
  }
  return fingerprint_of_text(text);
}

std::string ExperimentSpec::fingerprint_text() const {
  return emit_spec(*this, /*include_exec=*/false);
}

ExperimentSpec ExperimentSpec::from_text(const std::string& text) {
  FieldIo io(split_lines(text), "experiment spec");
  ExperimentSpec spec;
  bind_spec(io, spec);
  io.finish();
  return spec;
}

ExperimentSpec ExperimentSpec::from_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    throw std::runtime_error("ExperimentSpec::from_file: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return from_text(buffer.str());
}

std::shared_ptr<const thermal::TemperatureTrace> materialize_trace(
    const TraceSource& source) {
  switch (source.kind) {
    case TraceSource::Kind::kGenerated:
      return std::make_shared<thermal::TemperatureTrace>(
          thermal::generate_trace(source.generator));
    case TraceSource::Kind::kCsvFile:
      if (source.csv_path.empty()) {
        throw std::invalid_argument("materialize_trace: empty CSV path");
      }
      return std::make_shared<thermal::TemperatureTrace>(
          load_trace_csv(source.csv_path, source.csv_dt_s));
    case TraceSource::Kind::kInline:
      if (!source.inline_trace) {
        throw std::invalid_argument("materialize_trace: null inline trace");
      }
      return source.inline_trace;
  }
  throw std::logic_error("materialize_trace: bad source kind");
}

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  ExperimentResult out;
  out.kind = spec.kind;
  switch (spec.kind) {
    case ExperimentKind::kComparison: {
      const auto trace = materialize_trace(spec.trace);
      out.comparison = detail::run_comparison_direct(*trace, spec.comparison);
      break;
    }
    case ExperimentKind::kMonteCarlo: {
      if (spec.trace.kind != TraceSource::Kind::kGenerated) {
        throw std::invalid_argument(
            "run_experiment: a Monte-Carlo study needs a generated trace "
            "source (the engine re-seeds it per sample)");
      }
      MonteCarloOptions options;
      options.base_trace = spec.trace.generator;
      options.comparison = spec.comparison;
      options.num_seeds = spec.mc_num_seeds;
      options.first_seed = spec.mc_first_seed;
      options.num_threads = spec.mc_num_threads;
      out.monte_carlo = detail::run_monte_carlo_direct(options);
      break;
    }
    case ExperimentKind::kSweep: {
      if (spec.trace.kind != TraceSource::Kind::kGenerated) {
        throw std::invalid_argument(
            "run_experiment: a sweep needs a generated trace source (the "
            "swept parameter mutates the generator config)");
      }
      out.sweep = detail::sweep_direct(
          spec.trace.generator, spec.sweep_values,
          spec.sweep_parameter_name, spec.comparison,
          spec.sweep_num_threads);
      break;
    }
  }
  return out;
}

}  // namespace tegrec::sim
