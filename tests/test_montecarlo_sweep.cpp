#include <gtest/gtest.h>

#include <limits>

#include "sim/montecarlo.hpp"
#include "sim/spec.hpp"

namespace tegrec::sim {
namespace {

thermal::TraceGeneratorConfig tiny_config() {
  thermal::TraceGeneratorConfig config;
  // 24 modules: small enough for speed, large enough that the square-grid
  // baseline's string voltage clears the converter's input floor.
  config.layout.num_modules = 24;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 25.0, 30.0, 0.0}};
  return config;
}

ComparisonOptions fast_comparison() {
  ComparisonOptions options;
  options.include_inor = false;
  options.include_ehtr = false;
  return options;
}

ExperimentSpec coupling_sweep(std::vector<double> values,
                              const ComparisonOptions& comparison) {
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kSweep;
  spec.trace.kind = TraceSource::Kind::kGenerated;
  spec.trace.generator = tiny_config();
  spec.comparison = comparison;
  spec.sweep_parameter_name = "surface_coupling";
  spec.sweep_values = std::move(values);
  return spec;
}

TEST(MonteCarlo, AggregatesAcrossSeeds) {
  MonteCarloOptions options;
  options.base_trace = tiny_config();
  options.comparison = fast_comparison();
  options.num_seeds = 4;
  options.first_seed = 10;
  const MonteCarloSummary summary = run_monte_carlo(options);
  ASSERT_EQ(summary.samples.size(), 4u);
  EXPECT_EQ(summary.samples.front().seed, 10u);
  EXPECT_EQ(summary.samples.back().seed, 13u);
  EXPECT_EQ(summary.gain.count(), 4u);
  // The reconfiguration gain must be positive on average across drives.
  EXPECT_GT(summary.gain.mean(), 0.0);
  EXPECT_GT(summary.dnor_energy_j.min(), 0.0);
}

TEST(MonteCarlo, NanGainSampleLeftOutOfAggregate) {
  // A zero-harvest baseline makes a seed's gain NaN (undefined, not 0).
  // That sample must not poison the statistics of every valid seed — it
  // simply reduces gain.count().  Energies always aggregate.
  MonteCarloSummary summary;
  summary.samples.resize(3);
  summary.samples[0].gain = 0.5;
  summary.samples[0].dnor_energy_j = 10.0;
  summary.samples[1].gain = std::numeric_limits<double>::quiet_NaN();
  summary.samples[1].dnor_energy_j = 11.0;
  summary.samples[2].gain = 0.7;
  summary.samples[2].dnor_energy_j = 12.0;
  detail::fold_monte_carlo_stats(summary);
  EXPECT_EQ(summary.gain.count(), 2u);
  EXPECT_DOUBLE_EQ(summary.gain.mean(), 0.6);
  EXPECT_EQ(summary.dnor_energy_j.count(), 3u);
}

TEST(MonteCarlo, DistinctSeedsGiveDistinctSamples) {
  MonteCarloOptions options;
  options.base_trace = tiny_config();
  options.comparison = fast_comparison();
  options.num_seeds = 3;
  const MonteCarloSummary summary = run_monte_carlo(options);
  EXPECT_NE(summary.samples[0].dnor_energy_j, summary.samples[1].dnor_energy_j);
  EXPECT_GT(summary.dnor_energy_j.stddev(), 0.0);
}

TEST(MonteCarlo, Validation) {
  MonteCarloOptions options;
  options.base_trace = tiny_config();
  options.num_seeds = 0;
  EXPECT_THROW(run_monte_carlo(options), std::invalid_argument);
  options.num_seeds = 2;
  options.comparison.include_baseline = false;
  EXPECT_THROW(run_monte_carlo(options), std::invalid_argument);
}

TEST(Sweep, CouplingSweepMonotoneEnergy) {
  const auto points =
      run_experiment(coupling_sweep({0.55, 0.7, 0.85}, fast_comparison()))
          .sweep;
  ASSERT_EQ(points.size(), 3u);
  // Better thermal coupling -> more dT -> more energy for both schemes.
  EXPECT_LT(points[0].dnor_energy_j, points[1].dnor_energy_j);
  EXPECT_LT(points[1].dnor_energy_j, points[2].dnor_energy_j);
  for (const auto& p : points) {
    EXPECT_GT(p.gain, 0.0);
    EXPECT_GT(p.dnor_ratio_to_ideal, 0.5);
  }
}

TEST(Sweep, Validation) {
  EXPECT_THROW(run_experiment(coupling_sweep({}, fast_comparison())),
               std::invalid_argument);
  ExperimentSpec unknown = coupling_sweep({1.0}, fast_comparison());
  unknown.sweep_parameter_name = "warp_factor";
  EXPECT_THROW(run_experiment(unknown), std::invalid_argument);
  ComparisonOptions no_base = fast_comparison();
  no_base.include_baseline = false;
  EXPECT_THROW(run_experiment(coupling_sweep({1.0}, no_base)),
               std::invalid_argument);
}

}  // namespace
}  // namespace tegrec::sim
