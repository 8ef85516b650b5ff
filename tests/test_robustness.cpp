// Cross-cutting robustness properties: the paper's qualitative claims must
// hold for *any* synthetic drive, not just the default seed.  Each property
// is swept over trace seeds (different drives, noise realisations).
#include <gtest/gtest.h>

#include "core/ehtr.hpp"
#include "core/inor.hpp"
#include "core/objective.hpp"
#include "port_oracle.hpp"
#include "power/mppt.hpp"
#include "sim/experiment.hpp"
#include "teg/array_evaluator.hpp"
#include "thermal/trace.hpp"
#include "util/rng.hpp"

namespace tegrec {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  thermal::TemperatureTrace make_trace() const {
    thermal::TraceGeneratorConfig config;
    config.layout.num_modules = 24;
    config.segments = {{thermal::DriveSegment::Kind::kUrban, 30.0, 30.0, 0.0},
                       {thermal::DriveSegment::Kind::kCruise, 30.0, 65.0, 0.0}};
    config.seed = GetParam();
    return thermal::generate_trace(config);
  }
};

TEST_P(SeedSweep, ReconfigurationAlwaysBeatsBaseline) {
  sim::ComparisonOptions options;
  options.include_ehtr = false;  // keep the sweep fast
  const sim::ComparisonResult res =
      sim::run_standard_comparison(make_trace(), options);
  EXPECT_GT(res.dnor_gain_over_baseline(), 0.02)
      << "seed " << GetParam();
  EXPECT_GT(res.by_name("INOR").energy_output_j,
            res.by_name("Baseline").energy_output_j)
      << "seed " << GetParam();
}

TEST_P(SeedSweep, EnergyConservationEveryStep) {
  sim::ComparisonOptions options;
  options.include_inor = false;
  options.include_ehtr = false;
  options.include_baseline = false;
  const sim::ComparisonResult res =
      sim::run_standard_comparison(make_trace(), options);
  for (const auto& s : res.by_name("DNOR").steps) {
    EXPECT_GE(s.net_power_w, 0.0);
    EXPECT_LE(s.net_power_w, s.gross_power_w + 1e-9);
    EXPECT_LE(s.gross_power_w, s.ideal_power_w + 1e-9);
  }
}

TEST_P(SeedSweep, DnorSwitchesSparselyOnEveryDrive) {
  sim::ComparisonOptions options;
  options.include_inor = false;
  options.include_ehtr = false;
  options.include_baseline = false;
  const auto trace = make_trace();
  const sim::ComparisonResult res = sim::run_standard_comparison(trace, options);
  EXPECT_LT(res.by_name("DNOR").num_switch_events, trace.num_steps() / 4)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 7u, 42u, 1337u, 99999u));

// MPPT cross-validation: P&O must agree with the golden-section oracle on
// random strings.
class TrackerAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrackerAgreement, PerturbObserveReachesOracle) {
  util::Rng rng(GetParam());
  const teg::DeviceParams dev = teg::tgm_199_1_4_0_8();
  std::vector<double> dts(30);
  for (auto& dt : dts) dt = rng.uniform(8.0, 40.0);
  const teg::TegArray array(dev, dts);
  const std::size_t n_groups = static_cast<std::size_t>(rng.uniform_int(6, 12));
  const teg::LinearSource s =
      oracle::direct_string_port(array, teg::ArrayConfig::uniform(30, n_groups));
  const power::Converter conv{power::ConverterParams{}};
  const power::OperatingPoint best = power::optimal_operating_point(s, conv);
  if (best.output_power_w < 0.5) GTEST_SKIP() << "string outside window";

  power::PerturbObserveTracker po(0.01);
  po.reset(0.4 * best.current_a);
  EXPECT_GT(po.run(s, conv, 1500).output_power_w, 0.95 * best.output_power_w)
      << "P&O, seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackerAgreement,
                         ::testing::Values(3u, 11u, 29u, 71u));

// INOR near-optimality across group windows and random profiles, checked
// against the DP optimum (cheaper than the exhaustive oracle, so we can
// afford larger N here).
class InorVsDp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InorVsDp, GreedyWithinFivePercentOfDpBest) {
  util::Rng rng(GetParam());
  const teg::DeviceParams dev = teg::tgm_199_1_4_0_8();
  std::vector<double> dts(60);
  // Monotone-ish decaying profile with noise — the physical case.
  for (std::size_t i = 0; i < dts.size(); ++i) {
    dts[i] = 38.0 * std::exp(-2.0 * static_cast<double>(i) / 60.0) + 4.0 +
             rng.uniform(-1.0, 1.0);
  }
  const teg::TegArray array(dev, dts);
  const power::Converter conv{power::ConverterParams{}};

  const teg::ArrayEvaluator evaluator(array);

  const teg::ArrayConfig greedy = core::inor_search(array, conv);
  double dp_best = 0.0;
  for (const auto& c : core::balanced_partitions(array.module_mpp_currents(), 60)) {
    dp_best = std::max(dp_best, core::config_power_w(evaluator, conv, c));
  }
  EXPECT_GE(core::config_power_w(evaluator, conv, greedy), 0.95 * dp_best)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, InorVsDp, ::testing::Values(5u, 17u, 23u, 61u));

}  // namespace
}  // namespace tegrec
