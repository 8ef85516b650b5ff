// Differential harness for the warm-started actuation path (ISSUE 10).
//
// The warm-start machinery in ehtr_search is an equivalence theorem, not a
// behaviour: for every input and every warm setting the chosen config and
// its charger-aware score must be *bit-identical* to the cold full sweep.
// Every comparison here is EXPECT_EQ on exact doubles — no tolerances, by
// design: the moment the two paths diverge in the last ulp the
// caching/fingerprint story breaks.
#include "core/ehtr.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <gtest/gtest.h>
#include <limits>
#include <string>
#include <vector>

#include "core/objective.hpp"
#include "ehtr_oracle.hpp"
#include "scenario_fixtures.hpp"
#include "teg/array_evaluator.hpp"
#include "thermal/scenario.hpp"
#include "thermal/trace.hpp"
#include "util/rng.hpp"

namespace tegrec::core {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

/// Exhaust-like profile that drifts slowly between control periods: decaying
/// base shape, a slow travelling wave, small per-module noise, and a per-step
/// warm-up ramp.  Consecutive steps move the optimum a little — exactly the
/// regime the warm start exploits.
std::vector<double> drifting_field(util::Rng& rng, std::size_t n, int step) {
  std::vector<double> dts(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n);
    dts[i] = 4.0 + 38.0 * std::exp(-1.9 * x) +
             3.0 * std::sin(9.0 * x + 0.35 * step) + rng.uniform(0.0, 1.5) +
             0.4 * step;
  }
  return dts;
}

TEST(EhtrWarm, BitIdenticalToColdAcrossSeedsAndDriftingFields) {
  const std::size_t n = 64;
  const power::Converter conv(kConv);
  for (unsigned seed = 0; seed < 20; ++seed) {
    util::Rng rng(seed);
    std::size_t incumbent = 0;  // first step: no held config, window seed
    for (int step = 0; step < 5; ++step) {
      const teg::TegArray array(kDev, drifting_field(rng, n, step));
      const teg::ArrayEvaluator evaluator(array);
      const teg::ArrayConfig cold = ehtr_search(array, conv);

      EhtrWarmStart warm;
      warm.enabled = true;
      warm.incumbent_groups = incumbent;
      warm.width = 8;
      EhtrSearchStats stats;
      const teg::ArrayConfig hot =
          ehtr_search(array, conv, 1, PartitionDp::kDivideAndConquer, 0, warm,
                      &stats);

      ASSERT_EQ(hot, cold) << "seed " << seed << " step " << step;
      EXPECT_EQ(config_power_w(evaluator, conv, hot),
                config_power_w(evaluator, conv, cold));
      EXPECT_TRUE(stats.warm_used);
      EXPECT_EQ(stats.max_groups, n);
      EXPECT_LE(stats.groups_certified, stats.max_groups);
      incumbent = hot.num_groups();  // carry like the controller does
    }
  }
}

TEST(EhtrWarm, BitIdenticalAcrossThreadsDpKindsAndCaps) {
  const std::size_t n = 48;
  const power::Converter conv(kConv);
  const PartitionDp kinds[] = {PartitionDp::kDivideAndConquer,
                               PartitionDp::kLegacyCubic};
  const std::size_t caps[] = {0, 7, 24};       // 0 = full sweep
  const std::size_t threads[] = {1, 4, 0};     // 0 = hardware concurrency
  util::Rng rng(1234);
  for (unsigned trial = 0; trial < 5; ++trial) {
    const teg::TegArray array(kDev, drifting_field(rng, n, int(trial)));
    const teg::ArrayEvaluator evaluator(array);
    for (const PartitionDp dp : kinds) {
      for (const std::size_t cap : caps) {
        // Cold reference: single-threaded full solve of this (dp, cap).
        const teg::ArrayConfig cold = ehtr_search(array, conv, 1, dp, cap);
        const double cold_power = config_power_w(evaluator, conv, cold);
        for (const std::size_t nt : threads) {
          EhtrWarmStart warm;
          warm.enabled = true;
          warm.incumbent_groups = (trial % 2) ? cold.num_groups() : 0;
          warm.width = 4;  // small: forces the certified extension loop
          const teg::ArrayConfig hot = ehtr_search(array, conv, nt, dp, cap, warm);
          ASSERT_EQ(hot, cold)
              << "dp=" << int(dp) << " cap=" << cap << " threads=" << nt;
          EXPECT_EQ(config_power_w(evaluator, conv, hot), cold_power);
        }
      }
    }
  }
}

TEST(EhtrWarm, ExtremeWarmSettingsStillMatchCold) {
  // width = 1 maximises reliance on the certified extension loop; an absurd
  // incumbent (beyond max_groups) must fall back to the window seed; and a
  // huge width degenerates to the cold sweep outright.
  const std::size_t n = 56;
  const power::Converter conv(kConv);
  util::Rng rng(77);
  const teg::TegArray array(kDev, drifting_field(rng, n, 0));
  const teg::ArrayEvaluator evaluator(array);
  const teg::ArrayConfig cold = ehtr_search(array, conv);
  const double cold_power = config_power_w(evaluator, conv, cold);

  struct Case {
    std::size_t incumbent;
    std::size_t width;
  };
  const Case cases[] = {{0, 1}, {cold.num_groups(), 1}, {1, 1},
                        {n, 1},  {n + 1000, 3},          {0, 100000}};
  for (const Case& c : cases) {
    EhtrWarmStart warm;
    warm.enabled = true;
    warm.incumbent_groups = c.incumbent;
    warm.width = c.width;
    EhtrSearchStats stats;
    const teg::ArrayConfig hot =
        ehtr_search(array, conv, 1, PartitionDp::kDivideAndConquer, 0, warm,
                    &stats);
    ASSERT_EQ(hot, cold) << "incumbent=" << c.incumbent << " width=" << c.width;
    EXPECT_EQ(config_power_w(evaluator, conv, hot), cold_power);
    EXPECT_TRUE(stats.warm_used);
  }
}

TEST(EhtrWarm, PruningActuallyEngagesOnLargeArrays) {
  // On a big array with the default 400 W converter cap the score bound
  // falls like 1/n and must certify a tail away — otherwise the warm path
  // is a no-op and the bench's speedup claim is vacuous.
  const std::size_t n = 2000;
  std::vector<double> dts(n);
  util::Rng rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n);
    dts[i] = 4.0 + 38.0 * std::exp(-1.9 * x) + rng.uniform(0.0, 1.0);
  }
  const teg::TegArray array(kDev, dts);
  const teg::ArrayEvaluator evaluator(array);
  const power::Converter conv(kConv);

  EhtrWarmStart warm;
  warm.enabled = true;
  warm.incumbent_groups = 0;  // seed from the converter window
  warm.width = 64;
  EhtrSearchStats stats;
  const teg::ArrayConfig hot =
      ehtr_search(array, conv, 0, PartitionDp::kDivideAndConquer, 0, warm,
                  &stats);
  EXPECT_TRUE(stats.warm_used);
  EXPECT_EQ(stats.max_groups, n);
  EXPECT_LT(stats.groups_certified, n)
      << "bound never pruned anything — warm start degenerated to cold";
  // And the certified result still matches the cold sweep exactly.
  const teg::ArrayConfig cold = ehtr_search(array, conv, 0);
  ASSERT_EQ(hot, cold);
  EXPECT_EQ(config_power_w(evaluator, conv, hot),
            config_power_w(evaluator, conv, cold));
}

TEST(EhtrWarm, BitIdenticalToColdUnderEveryConverterVariant) {
  // The certificate is power::OutputPowerBound at the relaxed port, so it
  // must hold for every converter shape the bound's math special-cases.
  for (const fixtures::ConverterVariant& variant :
       fixtures::converter_variants()) {
    const power::Converter conv(variant.params);
    for (const std::string& scenario : thermal::scenario_names()) {
      for (std::size_t n : {16u, 64u, 256u}) {
        std::size_t incumbent = 0;
        for (const fixtures::Field& field :
             fixtures::scenario_fields(scenario, 2, n, 3)) {
          const teg::TegArray array(kDev, field.delta_t_k, field.ambient_c);
          const teg::ArrayConfig cold = ehtr_search(array, conv);
          EhtrWarmStart warm;
          warm.enabled = true;
          warm.incumbent_groups = incumbent;
          warm.width = 8;
          const teg::ArrayConfig hot = ehtr_search(
              array, conv, 1, PartitionDp::kDivideAndConquer, 0, warm);
          ASSERT_EQ(hot, cold)
              << variant.name << ", " << scenario << ", N = " << n;
          incumbent = hot.num_groups();
        }
      }
    }
  }
}

TEST(EhtrWarm, KiloStreamSolvesAndScoresFewLayers) {
  // The stream_kilo benchmark's EHTR input: porter_800s at generator seed
  // 1001, 1,000 modules, the first 1,000 steps, the incumbent threaded
  // from each decision to the next as the controller does.  The optimum
  // sits at 10-26 groups.  With the light-load derating g(p) and the
  // efficiency window inside the bound, few layers past it survive; the
  // bound without them solved 16.6 % of the layers here.  Of the solved
  // layers, the per-candidate bound leaves about one in six to score.
  thermal::TraceGeneratorConfig config = thermal::scenario("porter_800s");
  config.layout.num_modules = 1000;
  config.seed = 1001;
  const thermal::TemperatureTrace trace = thermal::generate_trace(config);
  ASSERT_GE(trace.num_steps(), 1000u);
  const power::Converter conv(kConv);
  std::size_t incumbent = 0;
  std::size_t solved = 0;
  std::size_t layers = 0;
  std::size_t scored = 0;
  EhtrScratch scratch;
  for (std::size_t t = 0; t < 1000; ++t) {
    const teg::TegArray array(kDev, trace.step_delta_t(t), trace.ambient_c(t));
    EhtrWarmStart warm;
    warm.enabled = true;
    warm.incumbent_groups = incumbent;
    EhtrSearchStats stats;
    const teg::ArrayConfig hot = ehtr_search(
        array, conv, 1, PartitionDp::kDivideAndConquer, 0, warm, scratch,
        &stats);
    ASSERT_TRUE(stats.warm_used);
    solved += stats.groups_certified;
    layers += stats.max_groups;
    scored += stats.candidates_scored;
    incumbent = hot.num_groups();
  }
  EXPECT_LE(static_cast<double>(solved), 0.13 * static_cast<double>(layers));
  EXPECT_LE(static_cast<double>(scored), 0.25 * static_cast<double>(solved));
}

// ---- gated warm search == the ungated oracle (tests/ehtr_oracle.hpp)

// `scratch` carries over between calls and fields, as the controller's
// does across steps.
void expect_matches_oracle(const teg::TegArray& array,
                           const power::Converter& conv, EhtrScratch& scratch,
                           const std::string& what) {
  const oracle::EhtrOracleResult expected =
      oracle::ehtr_search_ungated(array, conv);
  const teg::ArrayEvaluator evaluator(array);
  const std::size_t count = array.size();
  const std::size_t first_solve = group_count_window(array, conv).nmax;
  // The oracle's neighbours put its choice just past the first solve and
  // just below the seed.
  const std::size_t best = expected.config.num_groups();
  const std::size_t past_first_solve =
      std::min(count, first_solve + count / 4 + 1);
  const std::size_t incumbents[] = {0,
                                    1,
                                    best > 1 ? best - 1 : best,
                                    best,
                                    std::min(count, best + 1),
                                    past_first_solve,
                                    count};
  for (const std::size_t incumbent : incumbents) {
    for (const std::size_t threads : {1u, 4u}) {
      EhtrWarmStart warm;
      warm.enabled = true;
      warm.incumbent_groups = incumbent;
      EhtrSearchStats stats;
      const teg::ArrayConfig hot =
          ehtr_search(array, conv, threads, PartitionDp::kDivideAndConquer, 0,
                      warm, scratch, &stats);
      ASSERT_EQ(hot, expected.config) << what << ", incumbent " << incumbent
                                      << ", " << threads << " thread(s)";
      const double power = config_power_w(evaluator, conv, hot);
      if (expected.power_w > -1.0) {
        EXPECT_EQ(power, expected.power_w) << what;
      }
      EXPECT_LE(stats.candidates_scored, stats.groups_certified) << what;
    }
  }
}

TEST(EhtrWarm, GatedSearchEqualsUngatedOracleOnRandomFields) {
  const power::Converter conv(kConv);
  util::Rng rng(2028);
  EhtrScratch scratch;
  for (const std::size_t n : {16u, 64u, 1000u}) {
    for (int trial = 0; trial < (n == 1000 ? 2 : 4); ++trial) {
      std::vector<double> dts(n);
      for (double& dt : dts) dt = rng.uniform(0.0, 60.0);
      const double ambient = rng.uniform(-10.0, 45.0);
      expect_matches_oracle(teg::TegArray(kDev, dts, ambient), conv, scratch,
                            "N = " + std::to_string(n) + ", trial " +
                                std::to_string(trial));
    }
  }
}

TEST(EhtrWarm, GatedSearchEqualsUngatedOracleOnNanAndDeadFields) {
  const power::Converter conv(kConv);
  EhtrScratch scratch;
  std::vector<double> dts(64, 25.0);
  dts[9] = std::numeric_limits<double>::quiet_NaN();
  expect_matches_oracle(teg::TegArray(kDev, dts), conv, scratch,
                        "one NaN module");
  expect_matches_oracle(teg::TegArray(kDev, std::vector<double>(64, 0.0)), conv,
                        scratch, "all-zero field");
}

TEST(EhtrWarm, DegenerateFieldsDisableWarmButStayIdentical) {
  // Non-finite module states must force the cold path (warm_used = false)
  // and still return exactly what cold search returns.
  const std::size_t n = 24;
  // (Infinity is rejected by Module's validity range at construction; NaN
  // passes the range comparisons and reaches the search as non-finite voc.)
  std::vector<double> dts(n, 20.0);
  dts[5] = std::numeric_limits<double>::quiet_NaN();
  dts[17] = std::numeric_limits<double>::quiet_NaN();
  const teg::TegArray array(kDev, dts);
  const power::Converter conv(kConv);

  const teg::ArrayConfig cold = ehtr_search(array, conv);
  EhtrWarmStart warm;
  warm.enabled = true;
  warm.incumbent_groups = 4;
  warm.width = 2;
  EhtrSearchStats stats;
  const teg::ArrayConfig hot =
      ehtr_search(array, conv, 1, PartitionDp::kDivideAndConquer, 0, warm,
                  &stats);
  ASSERT_EQ(hot, cold);
  EXPECT_FALSE(stats.warm_used);
  EXPECT_EQ(stats.groups_certified, stats.max_groups);
}

TEST(EhtrWarm, ControllerDecisionStreamIsBitIdentical) {
  // End-to-end: a warm EhtrReconfigurer must emit the exact decision stream
  // (configs, invocation flags, energies) of a cold one, with the incumbent
  // threading through consecutive actuations as the temperature drifts.
  const std::size_t n = 64;
  const power::Converter conv(kConv);
  EhtrReconfigurer cold(kDev, kConv, 0.5, 1, 0, /*warm_start=*/false);
  EhtrReconfigurer hot(kDev, kConv, 0.5, 1, 0, /*warm_start=*/true,
                       /*warm_width=*/8);
  EXPECT_EQ(hot.algorithm_cost().budget_multiplier,
            cold.algorithm_cost().budget_multiplier);

  util::Rng rng(11);
  for (int step = 0; step < 10; ++step) {
    const std::vector<double> dts = drifting_field(rng, n, step);
    const double t = 0.5 * step;
    const UpdateResult rc = cold.update(t, dts, 25.0);
    const UpdateResult rh = hot.update(t, dts, 25.0);
    ASSERT_EQ(rh.config, rc.config) << "step " << step;
    EXPECT_EQ(rh.invoked, rc.invoked);
    EXPECT_EQ(rh.switched, rc.switched);
    EXPECT_EQ(rh.actuate, rc.actuate);
    const teg::TegArray array(kDev, dts);
    const teg::ArrayEvaluator evaluator(array);
    EXPECT_EQ(config_power_w(evaluator, conv, rh.config),
              config_power_w(evaluator, conv, rc.config));
  }
}

}  // namespace
}  // namespace tegrec::core
