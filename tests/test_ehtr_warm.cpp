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
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/objective.hpp"
#include "ehtr_oracle.hpp"
#include "power/mppt.hpp"
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
  // sits at 10-26 groups.  The relaxed-port bound alone solved 11.9 % of
  // the layers here; with the split-moments bound beside it, 3.6 %.  The
  // per-candidate gate runs the golden section on about 21.5 candidates a
  // step, 2.15 % of the layers.  Every 50th step is also searched cold,
  // and the two must agree exactly.
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
    if (t % 50 == 0) {
      ASSERT_EQ(hot, ehtr_search(array, conv)) << "step " << t;
    }
    solved += stats.groups_certified;
    layers += stats.max_groups;
    scored += stats.candidates_scored;
    incumbent = hot.num_groups();
  }
  EXPECT_LE(static_cast<double>(solved), 0.06 * static_cast<double>(layers));
  EXPECT_LE(static_cast<double>(scored), 0.0325 * static_cast<double>(layers));
}

// ---- the split-moments bound covers every n-group port

/// Checks SplitMoments::bound, for every n and at floors 0, half the best
/// score and the best, against OutputPowerBound::at at the DP partition's
/// computed port and at a random contiguous partition's port, and against
/// the DP partition's golden-section score when that reaches the floor.
/// "Not below" is what pruning reads, so a NaN on either side passes.
void expect_split_bound_covers(std::span<const teg::LinearSource> ports,
                               const power::Converter& conv, util::Rng& rng,
                               const std::string& what) {
  const std::size_t count = ports.size();
  SplitMoments moments;
  ASSERT_TRUE(moments.assign(ports)) << what;
  std::vector<double> impp;
  for (const teg::LinearSource& m : ports) impp.push_back(m.mpp_current_a());
  const PartitionTable table(impp, count);
  const teg::ArrayEvaluator evaluator(ports);
  std::vector<teg::LinearSource> dp_ports;
  std::vector<double> scores;
  std::vector<std::size_t> starts;
  for (std::size_t n = 1; n <= count; ++n) {
    table.reconstruct(n, starts);
    dp_ports.push_back(
        evaluator.string_equivalent(std::span<const std::size_t>(starts)));
    scores.push_back(
        power::optimal_operating_point(dp_ports.back(), conv).output_power_w);
  }
  const double best = *std::max_element(scores.begin(), scores.end());
  std::vector<std::size_t> cuts(count - 1);
  for (std::size_t i = 0; i + 1 < count; ++i) cuts[i] = i + 1;
  for (const double floor : {0.0, 0.5 * best, best}) {
    const power::OutputPowerBound gate(conv, floor);
    for (std::size_t n = 1; n <= count; ++n) {
      const double bound = moments.bound(gate, n);
      const teg::LinearSource& dp = dp_ports[n - 1];
      ASSERT_FALSE(bound < gate.at(dp.voc_v, dp.r_ohm))
          << what << ", n " << n << ", floor " << floor;
      if (scores[n - 1] >= floor) {
        ASSERT_FALSE(bound < scores[n - 1]) << what << ", n " << n;
      }
      // n - 1 distinct cuts: a partial shuffle, then sorted.
      for (std::size_t k = 0; k + 1 < n; ++k) {
        std::swap(cuts[k], cuts[k + static_cast<std::size_t>(rng.uniform_int(
                                         0, static_cast<int>(count - 2 - k)))]);
      }
      starts.assign(1, 0);
      starts.insert(starts.end(), cuts.begin(), cuts.begin() + (n - 1));
      std::sort(starts.begin(), starts.end());
      const teg::LinearSource port =
          evaluator.string_equivalent(std::span<const std::size_t>(starts));
      ASSERT_FALSE(bound < gate.at(port.voc_v, port.r_ohm))
          << what << ", random split, n " << n << ", floor " << floor;
    }
  }
}

TEST(EhtrWarm, SplitBoundCoversRandomFields) {
  const power::Converter conv(kConv);
  util::Rng rng(4242);
  for (const std::size_t n : {64u, 1000u}) {
    for (int trial = 0; trial < 2; ++trial) {
      const std::string tag =
          "N = " + std::to_string(n) + ", trial " + std::to_string(trial);
      std::vector<double> dts(n);
      for (double& dt : dts) dt = rng.uniform(0.0, 60.0);
      expect_split_bound_covers(teg::TegArray(kDev, dts), conv, rng,
                                "uniform, " + tag);
      // Hot and cold modules, in one block each and interleaved at random.
      const std::size_t hot = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<int>(n - 1)));
      for (std::size_t i = 0; i < n; ++i) dts[i] = i < hot ? 55.0 : 6.0;
      expect_split_bound_covers(teg::TegArray(kDev, dts), conv, rng,
                                "hot block, " + tag);
      for (double& dt : dts) dt = rng.bernoulli(0.3) ? 55.0 : 6.0;
      expect_split_bound_covers(teg::TegArray(kDev, dts), conv, rng,
                                "hot/cold, " + tag);
      // Module resistances over two decades, not one device's range.
      std::vector<teg::LinearSource> ports(n);
      for (teg::LinearSource& m : ports) {
        m = {rng.uniform(0.0, 4.0), std::exp(rng.uniform(-3.0, 1.6))};
      }
      expect_split_bound_covers(ports, conv, rng, "wide spread, " + tag);
    }
  }
}

TEST(EhtrWarm, SplitBoundCoversScenarioFields) {
  const power::Converter conv(kConv);
  util::Rng rng(4243);
  for (const std::string& scenario : thermal::scenario_names()) {
    for (const std::size_t n : {64u, 1000u}) {
      for (const fixtures::Field& field :
           fixtures::scenario_fields(scenario, 1, n, 2)) {
        expect_split_bound_covers(
            teg::TegArray(kDev, field.delta_t_k, field.ambient_c), conv, rng,
            scenario + ", N = " + std::to_string(n));
      }
    }
  }
}

TEST(EhtrWarm, SplitBoundIsTightOnANearUniformField) {
  // All modules within 1e-9 K of one temperature difference: W is almost
  // 0, and at n = 1 the bound is the single group's at() up to the
  // rounding margin.  The input window opens low enough to take one
  // group's ~1.5 V.
  power::ConverterParams low_window;
  low_window.min_input_v = 0.2;
  const power::Converter conv(low_window);
  util::Rng rng(5);
  for (const std::size_t n : {1u, 2u, 64u, 1000u}) {
    std::vector<double> dts(n);
    for (double& dt : dts) dt = 30.0 + rng.uniform(0.0, 1e-9);
    const teg::TegArray array(kDev, dts);
    if (n > 1) expect_split_bound_covers(array, conv, rng, "near-uniform");
    SplitMoments moments;
    ASSERT_TRUE(moments.assign(array));
    const teg::ArrayEvaluator evaluator(array);
    const std::size_t whole[] = {0};
    const teg::LinearSource one =
        evaluator.string_equivalent(std::span<const std::size_t>(whole));
    const power::OutputPowerBound gate(conv, 0.0);
    const double at_one = gate.at(one.voc_v, one.r_ohm);
    EXPECT_GE(moments.bound(gate, 1), at_one) << "N = " << n;
    EXPECT_LE(moments.bound(gate, 1), at_one * (1.0 + 1e-10)) << "N = " << n;
    EXPECT_GE(moments.bound(gate, 1),
              power::optimal_operating_point(one, conv).output_power_w);
  }
}

TEST(EhtrWarm, SmallAndDegenerateFieldsNeverMislead) {
  const power::Converter conv(kConv);
  util::Rng rng(6);
  // N = 1 and 2: every split checked, and warm still equals cold.
  const teg::TegArray one(kDev, std::vector<double>{42.0});
  const teg::TegArray two(kDev, std::vector<double>{48.0, 3.0});
  expect_split_bound_covers(two, conv, rng, "N = 2");
  for (const teg::TegArray* array : {&one, &two}) {
    EhtrWarmStart warm;
    warm.enabled = true;
    for (const std::size_t incumbent : {0u, 1u, 2u}) {
      warm.incumbent_groups = incumbent;
      ASSERT_EQ(ehtr_search(*array, conv, 1, PartitionDp::kDivideAndConquer, 0,
                            warm),
                ehtr_search(*array, conv));
    }
  }
  // One near-open module drives the rounding margin past the range its
  // argument covers; the bound must then prune nothing.
  std::vector<teg::LinearSource> near_open(64);
  for (teg::LinearSource& m : near_open) {
    m = {rng.uniform(1.0, 3.0), rng.uniform(0.8, 1.2)};
  }
  near_open[20].r_ohm = 1e15;
  expect_split_bound_covers(near_open, conv, rng, "near-open module");
  EhtrWarmStart warm;
  warm.enabled = true;
  for (const std::size_t incumbent : {0u, 1u, 2u, 8u}) {
    warm.incumbent_groups = incumbent;
    ASSERT_EQ(ehtr_search(near_open, conv, 1, PartitionDp::kDivideAndConquer,
                          0, warm),
              ehtr_search(near_open, conv))
        << "near-open module, incumbent " << incumbent;
  }
  // An all-zero field has K = 0 and W = 0: the bound is NaN, and a NaN
  // compares false, so no n is pruned.
  SplitMoments moments;
  ASSERT_TRUE(moments.assign(teg::TegArray(kDev, std::vector<double>(64, 0.0))));
  const power::OutputPowerBound zero_floor(conv, 0.0);
  for (std::size_t n = 1; n <= 64; ++n) {
    EXPECT_FALSE(moments.bound(zero_floor, n) < 0.0) << "n " << n;
  }
  // A spread that overflows to inf leaves the ceiling eta_peak g(P_cap),
  // above every output a port can deliver.
  const std::vector<teg::LinearSource> huge = {{1e200, 1.0}, {0.0, 1.0}};
  ASSERT_TRUE(moments.assign(huge));
  ASSERT_TRUE(std::isinf(moments.spread));
  const teg::LinearSource strong{60.0, 1.0};
  const double reachable =
      power::optimal_operating_point(strong, conv).output_power_w;
  const power::OutputPowerBound gate(conv, reachable);
  for (const std::size_t n : {1u, 2u}) {
    EXPECT_GE(moments.bound(gate, n), gate.at(strong.voc_v, strong.r_ohm));
  }
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
