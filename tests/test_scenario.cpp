// Workload scenario registry: every name materialises, fingerprints are
// stable (golden values), unknown names throw from spec parsing, scenario
// overrides compose, and the physics the names promise actually shows up
// in the traces (cold starts warm up, idle-stop cools between launches).
#include "thermal/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "sim/service.hpp"
#include "sim/spec.hpp"
#include "thermal/trace.hpp"
#include "util/stats.hpp"

namespace tegrec {
namespace {

// ------------------------------------------------------------- registry

TEST(ScenarioRegistry, CatalogIsSortedAndConsistent) {
  const auto& catalog = thermal::scenario_catalog();
  ASSERT_GE(catalog.size(), 5u);
  const std::vector<std::string> names = thermal::scenario_names();
  ASSERT_EQ(names.size(), catalog.size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(catalog[i].name, names[i]);
    EXPECT_FALSE(catalog[i].description.empty());
    EXPECT_TRUE(thermal::has_scenario(catalog[i].name));
  }
  EXPECT_FALSE(thermal::has_scenario("no_such_scenario"));
}

TEST(ScenarioRegistry, ExpectedEntriesExist) {
  for (const char* name :
       {"porter_800s", "urban_stop_start", "winter_cold_start",
        "boiler_economiser", "kiln_batch", "alpine_climb"}) {
    EXPECT_TRUE(thermal::has_scenario(name)) << name;
  }
}

TEST(ScenarioRegistry, UnknownNameThrowsListingRegistry) {
  try {
    thermal::scenario("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("porter_800s"), std::string::npos);
  }
}

TEST(ScenarioRegistry, EveryNameMaterialisesATrace) {
  for (const std::string& name : thermal::scenario_names()) {
    thermal::TraceGeneratorConfig config = thermal::scenario(name);
    // Shrink the array, not the schedule: the full workload physics runs,
    // but the per-step module loop stays test-sized.
    config.layout.num_modules = std::min<std::size_t>(
        config.layout.num_modules, 16);
    const thermal::TemperatureTrace trace = thermal::generate_trace(config);
    EXPECT_GT(trace.num_steps(), 100u) << name;
    EXPECT_EQ(trace.num_modules(), config.layout.num_modules) << name;
    for (std::size_t t = 0; t < trace.num_steps(); t += 37) {
      for (double temp : trace.step_temperatures(t)) {
        EXPECT_TRUE(std::isfinite(temp)) << name << " step " << t;
        EXPECT_GT(temp, -60.0) << name;
        EXPECT_LT(temp, 200.0) << name;
      }
    }
  }
}

TEST(ScenarioRegistry, DeterministicResolution) {
  // Resolving the same name twice yields an identical config (spot-checked
  // through the generated trace, which hashes every field that matters).
  thermal::TraceGeneratorConfig a = thermal::scenario("urban_stop_start");
  thermal::TraceGeneratorConfig b = thermal::scenario("urban_stop_start");
  a.layout.num_modules = b.layout.num_modules = 8;
  const auto ta = thermal::generate_trace(a);
  const auto tb = thermal::generate_trace(b);
  ASSERT_EQ(ta.num_steps(), tb.num_steps());
  EXPECT_DOUBLE_EQ(ta.temperature_c(ta.num_steps() / 2, 3),
                   tb.temperature_c(tb.num_steps() / 2, 3));
}

// ------------------------------------------------------- spec integration

sim::ExperimentSpec scenario_spec(const std::string& name) {
  sim::ExperimentSpec spec;
  spec.trace = sim::scenario_source(name);
  return spec;
}

TEST(ScenarioSpec, GoldenFingerprints) {
  // Content addresses of the scenario comparison specs.  These are golden
  // on purpose: they move only when the canonical serialisation, the
  // schema version, or a scenario's physics changes — all of which must
  // invalidate every cached result built from the name.  Update the
  // constants deliberately when that happens.
  EXPECT_EQ(scenario_spec("porter_800s").fingerprint(),
            "28656e8de75d4910210a276cf0086107");
  EXPECT_EQ(scenario_spec("urban_stop_start").fingerprint(),
            "41ffec4b2cfc2bd6bc2b10acdeefaa55");
  EXPECT_EQ(scenario_spec("winter_cold_start").fingerprint(),
            "40c65a6b141ea50ea527497ee83e64f3");
  EXPECT_EQ(scenario_spec("boiler_economiser").fingerprint(),
            "ecb1dd707beaa9f0972863f8cb1152a5");
  EXPECT_EQ(scenario_spec("kiln_batch").fingerprint(),
            "d59affbb137f5912e37680a65f97dc8d");
}

TEST(ScenarioSpec, FingerprintsStableAcrossProcessesAndDistinct) {
  std::vector<std::string> prints;
  for (const std::string& name : thermal::scenario_names()) {
    const sim::ExperimentSpec spec = scenario_spec(name);
    EXPECT_EQ(spec.fingerprint(), scenario_spec(name).fingerprint()) << name;
    prints.push_back(spec.fingerprint());
  }
  std::sort(prints.begin(), prints.end());
  EXPECT_EQ(std::unique(prints.begin(), prints.end()), prints.end());
}

TEST(ScenarioSpec, CanonicalTextRoundTrips) {
  for (const std::string& name : thermal::scenario_names()) {
    const sim::ExperimentSpec spec = scenario_spec(name);
    const std::string text = spec.canonical_text();
    EXPECT_NE(text.find("trace.scenario = " + name), std::string::npos) << name;
    const sim::ExperimentSpec back = sim::ExperimentSpec::from_text(text);
    EXPECT_EQ(back.trace.scenario_name, name);
    EXPECT_EQ(back.canonical_text(), text) << name;
    EXPECT_EQ(back.fingerprint(), spec.fingerprint()) << name;
  }
}

TEST(ScenarioSpec, UnknownScenarioThrowsFromParsing) {
  EXPECT_THROW(sim::ExperimentSpec::from_text(
                   "kind = comparison\ntrace.scenario = not_a_scenario\n"),
               std::invalid_argument);
  EXPECT_THROW(sim::scenario_source("not_a_scenario"), std::invalid_argument);
}

TEST(ScenarioSpec, HandSetUnregisteredNameFailsAtSerialisation) {
  // A scenario_name set by hand (bypassing scenario_source) must fail when
  // the spec is serialised, not later when someone re-parses the canonical
  // text — a fingerprint for an unresolvable address must never be minted.
  sim::ExperimentSpec spec;
  spec.trace.scenario_name = "my_private_workload";
  EXPECT_THROW(spec.canonical_text(), std::invalid_argument);
  EXPECT_THROW(spec.fingerprint(), std::invalid_argument);
}

TEST(ScenarioSpec, EmptyScenarioValueThrows) {
  // `trace.scenario =` with nothing after it (deleted name, templating
  // variable that expanded to empty) must not silently run the default
  // workload — same strictness as an unknown key.
  EXPECT_THROW(
      sim::ExperimentSpec::from_text("kind = comparison\ntrace.scenario =\n"),
      std::invalid_argument);
}

TEST(ScenarioSpec, ScenarioRequiresGeneratedSource) {
  EXPECT_THROW(sim::ExperimentSpec::from_text(
                   "kind = comparison\ntrace.source = csv\n"
                   "trace.scenario = porter_800s\ntrace.csv.path = x.csv\n"),
               std::invalid_argument);
}

TEST(ScenarioSpec, GenKeysOverrideOnTopOfScenario) {
  const sim::ExperimentSpec spec = sim::ExperimentSpec::from_text(
      "kind = comparison\ntrace.scenario = kiln_batch\n"
      "trace.gen.layout.num_modules = 8\n");
  // The override applies...
  EXPECT_EQ(spec.trace.generator.layout.num_modules, 8u);
  // ...while the scenario's schedule survives underneath it.
  const thermal::TraceGeneratorConfig reference =
      thermal::scenario("kiln_batch");
  ASSERT_EQ(spec.trace.generator.segments.size(), reference.segments.size());
  EXPECT_EQ(spec.trace.generator.segments[1].kind,
            thermal::DriveSegment::Kind::kBatchCycle);
  EXPECT_DOUBLE_EQ(spec.trace.generator.segments[1].process_power_kw,
                   reference.segments[1].process_power_kw);
  // And the overridden spec fingerprints differently from the pure one.
  EXPECT_NE(spec.fingerprint(), scenario_spec("kiln_batch").fingerprint());
}

TEST(ScenarioSpec, SecondSubmitIsACacheHit) {
  sim::ExperimentSpec spec = scenario_spec("urban_stop_start");
  spec.trace.generator.layout.num_modules = 8;  // keep the test quick
  spec.comparison.include_inor = false;
  spec.comparison.include_ehtr = false;
  sim::ServiceOptions options;
  options.num_workers = 1;
  sim::ExperimentService service(options);
  const auto first = service.submit(spec).wait();
  const sim::JobHandle again = service.submit(spec);
  const auto second = again.wait();
  EXPECT_TRUE(again.from_cache());
  EXPECT_EQ(service.executions(), 1u);
  EXPECT_EQ(service.cache_hits(), 1u);
  EXPECT_DOUBLE_EQ(first->comparison.runs[0].energy_output_j,
                   second->comparison.runs[0].energy_output_j);
}

// ------------------------------------------------------- workload physics

TEST(ScenarioPhysics, ColdStartBeginsBelowThermostatAndWarms) {
  thermal::TraceGeneratorConfig config = thermal::scenario("winter_cold_start");
  config.layout.num_modules = 16;
  const thermal::TemperatureTrace trace = thermal::generate_trace(config);

  const auto mean_at = [&trace](std::size_t step) {
    const auto temps = trace.step_temperatures(step);
    return util::mean(temps);
  };
  // A cold-soaked loop starts way below thermostat-open...
  EXPECT_LT(mean_at(0), config.engine.thermostat_open_c - 10.0);
  EXPECT_NEAR(mean_at(0), config.ambient.base_c, 2.0);
  // ...and the quarter-window means warm monotonically across the trace.
  const std::size_t quarter = trace.num_steps() / 4;
  double prev = -1e9;
  for (int q = 0; q < 4; ++q) {
    double sum = 0.0;
    for (std::size_t t = static_cast<std::size_t>(q) * quarter;
         t < static_cast<std::size_t>(q + 1) * quarter; ++t) {
      sum += mean_at(t);
    }
    const double window = sum / static_cast<double>(quarter);
    EXPECT_GT(window, prev) << "quarter " << q;
    prev = window;
  }
}

TEST(ScenarioPhysics, StopStartCoolsBetweenLaunches) {
  thermal::TraceGeneratorConfig config = thermal::scenario("urban_stop_start");
  config.layout.num_modules = 16;
  const thermal::TemperatureTrace trace = thermal::generate_trace(config);
  // Idle-stop dwells must actually pull the surface temperature down:
  // count mean-temperature decreases and require a substantial share (a
  // plain warm urban drive trends monotonically warmer or flat).
  std::size_t dips = 0;
  double prev = util::mean(trace.step_temperatures(0));
  double min_c = prev;
  double max_c = prev;
  for (std::size_t t = 1; t < trace.num_steps(); ++t) {
    const double m = util::mean(trace.step_temperatures(t));
    if (m < prev - 1e-3) ++dips;
    prev = m;
    min_c = std::min(min_c, m);
    max_c = std::max(max_c, m);
  }
  EXPECT_GT(dips, trace.num_steps() / 5);
  EXPECT_GT(max_c - min_c, 3.0);  // the sawtooth has real amplitude
}

TEST(ScenarioPhysics, IndustrialScenariosHoldTheirControlBand) {
  for (const char* name : {"boiler_economiser", "kiln_batch"}) {
    thermal::TraceGeneratorConfig config = thermal::scenario(name);
    config.layout.num_modules = 16;
    const thermal::TemperatureTrace trace = thermal::generate_trace(config);
    // Process plants idle hot: the hottest module must stay in a plausible
    // band around the process-control window for the whole schedule.
    for (std::size_t t = 0; t < trace.num_steps(); t += 23) {
      const auto temps = trace.step_temperatures(t);
      EXPECT_GT(util::max_value(temps), 40.0) << name << " step " << t;
      EXPECT_LT(util::max_value(temps), 130.0) << name << " step " << t;
    }
  }
}

}  // namespace
}  // namespace tegrec
