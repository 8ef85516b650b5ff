// Runtime twin of tegrec_lint's cache-key rule: the lint proves every
// config field is *mentioned* in src/sim/spec.cpp; this suite proves each
// one actually *moves the fingerprint*.  A field could pass the textual
// check while being bound under a condition that never emits it — this is
// the check the linter cannot do statically.
//
// Structure: per base spec (comparison / csv / monte-carlo / sweep), a
// table of named single-field perturbations.  Every perturbation must
// change the fingerprint, and all perturbed fingerprints within a group
// must be pairwise distinct (two fields aliasing onto one key would
// collide here).  Execution hints (thread counts) must change the
// canonical text but NOT the fingerprint — that is the contract that lets
// a farm reuse cached results across machine shapes.
#include <functional>
#include <gtest/gtest.h>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/spec.hpp"
#include "thermal/scenario.hpp"

namespace tegrec::sim {
namespace {

struct Perturbation {
  std::string field;
  std::function<void(ExperimentSpec&)> apply;
};

/// fingerprint() for generated/inline sources; for kCsvFile fingerprint()
/// additionally hashes the referenced file's bytes, so tests hash the
/// fingerprint text directly (same function, no filesystem dependency).
std::string fp(const ExperimentSpec& spec) {
  return ExperimentSpec::fingerprint_of_text(spec.fingerprint_text());
}

void expect_each_field_moves_fingerprint(
    const ExperimentSpec& base, const std::vector<Perturbation>& table) {
  const std::string base_fp = fp(base);
  std::map<std::string, std::string> fps;
  for (const Perturbation& p : table) {
    ExperimentSpec spec = base;
    p.apply(spec);
    const std::string perturbed = fp(spec);
    EXPECT_NE(perturbed, base_fp)
        << "perturbing '" << p.field
        << "' did not change the fingerprint — the field is not "
           "content-addressed and stale cached results would be served";
    fps[p.field] = perturbed;
  }
  // Pairwise distinct: two fields serialising onto the same key would make
  // their perturbations collide.
  std::set<std::string> unique;
  for (const auto& [field, hash] : fps) unique.insert(hash);
  EXPECT_EQ(unique.size(), fps.size())
      << "two perturbations produced the same fingerprint";
}

TEST(FingerprintFields, ComparisonSpecFields) {
  const ExperimentSpec base;  // kComparison + generated default trace
  auto seg = [](ExperimentSpec& s) -> thermal::DriveSegment& {
    return s.trace.generator.segments.at(0);
  };
  const std::vector<Perturbation> table = {
      {"kind", [](ExperimentSpec& s) { s.kind = ExperimentKind::kMonteCarlo; }},
      // TraceGeneratorConfig, directly owned fields:
      {"gen.sample_dt_s",
       [](ExperimentSpec& s) { s.trace.generator.sample_dt_s += 0.5; }},
      {"gen.sim_dt_s",
       [](ExperimentSpec& s) { s.trace.generator.sim_dt_s *= 0.5; }},
      {"gen.surface_time_constant_s",
       [](ExperimentSpec& s) { s.trace.generator.surface_time_constant_s += 1; }},
      {"gen.seed", [](ExperimentSpec& s) { s.trace.generator.seed += 1; }},
      {"gen.segments(count)",
       [](ExperimentSpec& s) {
         s.trace.generator.segments.push_back(
             s.trace.generator.segments.front());
       }},
      // DriveSegment, every field:
      {"segment.kind",
       [&](ExperimentSpec& s) {
         seg(s).kind = seg(s).kind == thermal::DriveSegment::Kind::kCruise
                           ? thermal::DriveSegment::Kind::kIdle
                           : thermal::DriveSegment::Kind::kCruise;
       }},
      {"segment.duration_s", [&](ExperimentSpec& s) { seg(s).duration_s += 7; }},
      {"segment.target_speed_kmh",
       [&](ExperimentSpec& s) { seg(s).target_speed_kmh += 3; }},
      {"segment.grade_percent",
       [&](ExperimentSpec& s) { seg(s).grade_percent += 1.5; }},
      {"segment.process_power_kw",
       [&](ExperimentSpec& s) { seg(s).process_power_kw += 0.25; }},
      {"segment.process_power_end_kw",
       [&](ExperimentSpec& s) { seg(s).process_power_end_kw += 0.75; }},
      {"segment.period_s", [&](ExperimentSpec& s) { seg(s).period_s += 11; }},
      // Nested generator structs (full field rosters are covered by the
      // cache-key lint; one probe per struct proves the block is emitted):
      {"gen.layout.num_modules",
       [](ExperimentSpec& s) { s.trace.generator.layout.num_modules += 1; }},
      {"gen.layout.exchanger.tube_length_m",
       [](ExperimentSpec& s) {
         s.trace.generator.layout.exchanger.tube_length_m += 0.1;
       }},
      {"gen.engine.thermal_mass_j_k",
       [](ExperimentSpec& s) {
         s.trace.generator.engine.thermal_mass_j_k += 100;
       }},
      {"gen.vehicle.mass_kg",
       [](ExperimentSpec& s) { s.trace.generator.vehicle.mass_kg += 50; }},
      {"gen.ambient.base_c",
       [](ExperimentSpec& s) { s.trace.generator.ambient.base_c += 2; }},
      {"gen.ambient.steps",
       [](ExperimentSpec& s) {
         s.trace.generator.ambient.steps.push_back({120.0, -5.0});
       }},
      // ComparisonOptions:
      {"comparison.include_dnor",
       [](ExperimentSpec& s) { s.comparison.include_dnor = false; }},
      {"comparison.include_inor",
       [](ExperimentSpec& s) { s.comparison.include_inor = false; }},
      {"comparison.include_ehtr",
       [](ExperimentSpec& s) { s.comparison.include_ehtr = false; }},
      {"comparison.include_baseline",
       [](ExperimentSpec& s) { s.comparison.include_baseline = false; }},
      {"comparison.control_period_s",
       [](ExperimentSpec& s) { s.comparison.control_period_s += 0.5; }},
      // SimulationOptions and its device/power/overhead blocks:
      {"sim.charge_overhead",
       [](ExperimentSpec& s) { s.comparison.sim.charge_overhead = false; }},
      {"sim.ehtr_max_groups",
       [](ExperimentSpec& s) { s.comparison.sim.ehtr_max_groups = 12; }},
      {"sim.device.num_couples",
       [](ExperimentSpec& s) { s.comparison.sim.device.num_couples += 1; }},
      {"sim.device.seebeck_v_k_couple",
       [](ExperimentSpec& s) {
         s.comparison.sim.device.seebeck_v_k_couple *= 1.1;
       }},
      {"sim.converter.output_voltage_v",
       [](ExperimentSpec& s) {
         s.comparison.sim.converter.output_voltage_v += 0.4;
       }},
      {"sim.battery.capacity_ah",
       [](ExperimentSpec& s) { s.comparison.sim.battery.capacity_ah += 5; }},
      {"sim.battery.initial_soc",
       [](ExperimentSpec& s) { s.comparison.sim.battery.initial_soc -= 0.1; }},
      {"sim.overhead.per_switch_energy_j",
       [](ExperimentSpec& s) {
         s.comparison.sim.overhead.per_switch_energy_j *= 2;
       }},
      {"sim.overhead.sensing_delay_s",
       [](ExperimentSpec& s) {
         s.comparison.sim.overhead.sensing_delay_s *= 2;
       }},
  };
  expect_each_field_moves_fingerprint(base, table);
}

TEST(FingerprintFields, ScenarioNameIsContentAddressed) {
  // A resolved scenario serialises both its name and the expanded config;
  // two registered scenarios must therefore never share a fingerprint.
  const std::vector<std::string> names = thermal::scenario_names();
  ASSERT_GE(names.size(), 2u);
  ExperimentSpec a;
  a.trace = scenario_source(names[0]);
  ExperimentSpec b;
  b.trace = scenario_source(names[1]);
  EXPECT_NE(fp(a), fp(b));
  EXPECT_NE(fp(a), fp(ExperimentSpec{}));
}

TEST(FingerprintFields, CsvSourceFields) {
  ExperimentSpec base;
  base.trace.kind = TraceSource::Kind::kCsvFile;
  base.trace.csv_path = "traces/a.csv";
  const std::vector<Perturbation> table = {
      {"trace.csv.path",
       [](ExperimentSpec& s) { s.trace.csv_path = "traces/b.csv"; }},
      {"trace.csv.dt_s", [](ExperimentSpec& s) { s.trace.csv_dt_s = 0.25; }},
  };
  expect_each_field_moves_fingerprint(base, table);
}

TEST(FingerprintFields, MonteCarloSpecFields) {
  ExperimentSpec base;
  base.kind = ExperimentKind::kMonteCarlo;
  const std::vector<Perturbation> table = {
      {"mc.num_seeds", [](ExperimentSpec& s) { s.mc_num_seeds += 5; }},
      {"mc.first_seed", [](ExperimentSpec& s) { s.mc_first_seed += 1; }},
  };
  expect_each_field_moves_fingerprint(base, table);
}

TEST(FingerprintFields, SweepSpecFields) {
  ExperimentSpec base;
  base.kind = ExperimentKind::kSweep;
  base.sweep_parameter_name = "control_period_s";
  base.sweep_values = {0.25, 0.5};
  const std::vector<Perturbation> table = {
      {"sweep.parameter",
       [](ExperimentSpec& s) { s.sweep_parameter_name = "sample_dt_s"; }},
      {"sweep.values", [](ExperimentSpec& s) { s.sweep_values.push_back(1.0); }},
  };
  expect_each_field_moves_fingerprint(base, table);
}

// ------------------------------------------------------- execution hints

/// Thread counts change how a study executes, never what it computes (the
/// library guarantees bit-identical results across thread counts), so
/// they serialise into the canonical text but are excluded from the
/// fingerprint — cached results stay valid across machine shapes.
TEST(FingerprintFields, ExecHintsDoNotMoveTheFingerprint) {
  struct Case {
    std::string field;
    ExperimentSpec base;
    std::function<void(ExperimentSpec&)> apply;
  };
  std::vector<Case> cases(3);
  cases[0].field = "exec.num_threads";
  cases[0].apply = [](ExperimentSpec& s) { s.comparison.sim.num_threads = 7; };
  cases[1].field = "exec.mc.num_threads";
  cases[1].base.kind = ExperimentKind::kMonteCarlo;
  cases[1].apply = [](ExperimentSpec& s) { s.mc_num_threads = 7; };
  cases[2].field = "exec.sweep.num_threads";
  cases[2].base.kind = ExperimentKind::kSweep;
  cases[2].base.sweep_parameter_name = "control_period_s";
  cases[2].base.sweep_values = {0.5};
  cases[2].apply = [](ExperimentSpec& s) { s.sweep_num_threads = 7; };

  for (Case& c : cases) {
    ExperimentSpec perturbed = c.base;
    c.apply(perturbed);
    EXPECT_EQ(fp(perturbed), fp(c.base))
        << c.field << " must not move the fingerprint (execution hint)";
    EXPECT_NE(perturbed.canonical_text(), c.base.canonical_text())
        << c.field << " must still appear in the canonical text";
  }
}

// Schema v3 bound the warm-start knobs as fingerprinted fields; v4 dropped
// them, since warm and cold EHTR decide identically.  Neither that spelling
// nor an exec.* one may select the cold search from a spec, and the struct
// fields that tests and benches set reach neither text.
TEST(FingerprintFields, WarmStartKeysAreUnknown) {
  for (const char* key : {"comparison.sim.ehtr_warm_start = 0\n",
                          "comparison.sim.ehtr_warm_width = 8\n",
                          "comparison.sim.exec.ehtr_warm_start = 0\n",
                          "comparison.sim.exec.ehtr_warm_width = 8\n"}) {
    try {
      ExperimentSpec::from_text(std::string("kind = comparison\n") + key);
      ADD_FAILURE() << "accepted " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos)
          << e.what();
    }
  }
  ExperimentSpec cold;
  cold.comparison.sim.ehtr_warm_start = false;
  cold.comparison.sim.ehtr_warm_width = 8;
  EXPECT_EQ(cold.canonical_text(), ExperimentSpec{}.canonical_text());
  EXPECT_EQ(fp(cold), fp(ExperimentSpec{}));
}

}  // namespace
}  // namespace tegrec::sim
