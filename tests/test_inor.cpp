#include "core/inor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <string>

#include "core/objective.hpp"
#include "exhaustive_oracle.hpp"
#include "inor_oracle.hpp"
#include "scenario_fixtures.hpp"
#include "util/rng.hpp"

namespace tegrec::core {
namespace {

using oracle::exhaustive_contiguous_search;
using oracle::ExhaustiveResult;

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

std::vector<double> decaying_delta_t(std::size_t n, double hi, double lo) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n - 1);
    out[i] = hi * std::exp(std::log(lo / hi) * x);
  }
  return out;
}

TEST(InorPartition, ExactGroupCount) {
  const std::vector<double> impp{1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  for (std::size_t n = 1; n <= 6; ++n) {
    const teg::ArrayConfig c = inor_partition(impp, n);
    EXPECT_EQ(c.num_groups(), n);
    EXPECT_EQ(c.num_modules(), 6u);
  }
}

TEST(InorPartition, UniformCurrentsGiveUniformGroups) {
  const std::vector<double> impp(12, 0.7);
  const teg::ArrayConfig c = inor_partition(impp, 4);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(c.group_end(j) - c.group_begin(j), 3u);
  }
}

TEST(InorPartition, BalancesGroupSums) {
  // Decaying currents: the greedy boundaries must make entrance groups
  // smaller (fewer hot modules reach Iideal) and exit groups larger.
  const std::vector<double> impp{2.0, 1.8, 1.5, 1.2, 1.0, 0.8, 0.6, 0.5, 0.4, 0.3};
  const teg::ArrayConfig c = inor_partition(impp, 3);
  ASSERT_EQ(c.num_groups(), 3u);
  EXPECT_LE(c.group_end(0) - c.group_begin(0),
            c.group_end(2) - c.group_begin(2));
  // Every group sum within 1 module-current of Iideal.
  double total = 0.0;
  for (double x : impp) total += x;
  const double ideal = total / 3.0;
  for (std::size_t j = 0; j < 3; ++j) {
    double sum = 0.0;
    for (std::size_t i = c.group_begin(j); i < c.group_end(j); ++i) sum += impp[i];
    EXPECT_NEAR(sum, ideal, 2.0) << "group " << j;
  }
}

TEST(InorPartition, InvalidArgsThrow) {
  EXPECT_THROW(inor_partition({1.0, 2.0}, 0), std::invalid_argument);
  EXPECT_THROW(inor_partition({1.0, 2.0}, 3), std::invalid_argument);
  EXPECT_THROW(inor_partition({1.0, -1.0}, 1), std::invalid_argument);
}

TEST(InorPartition, ToleratesColdModules) {
  // Modules at dT = 0 contribute zero MPP current but must not crash the
  // controller (the radiator can cool to ambient at a long stop).
  const teg::ArrayConfig c = inor_partition({1.0, 0.0, 0.8, 0.0, 0.6}, 2);
  EXPECT_EQ(c.num_groups(), 2u);
  EXPECT_EQ(c.num_modules(), 5u);
}

TEST(InorPartition, DeadArrayFallsBackToUniform) {
  const teg::ArrayConfig c = inor_partition(std::vector<double>(8, 0.0), 4);
  EXPECT_EQ(c, teg::ArrayConfig::uniform(8, 4));
}

TEST(InorSearch, SurvivesStoneColdArray) {
  const teg::TegArray array(kDev, std::vector<double>(20, 0.0));
  const teg::ArrayEvaluator evaluator(array);
  const power::Converter conv(kConv);
  const teg::ArrayConfig c =
      inor_search(array, conv, InorOptions{.nmin = 1, .nmax = 20});
  EXPECT_GE(c.num_groups(), 1u);
  EXPECT_DOUBLE_EQ(config_power_w(evaluator, conv, c), 0.0);
}

TEST(InorSearch, BeatsOrMatchesFixedBaseline) {
  const teg::TegArray array(kDev, decaying_delta_t(40, 38.0, 6.0));
  const teg::ArrayEvaluator evaluator(array);
  const power::Converter conv(kConv);
  const teg::ArrayConfig best = inor_search(array, conv);
  const double p_inor = config_power_w(evaluator, conv, best);
  // sqrt(N) x sqrt(N) fixed grid (well inside the converter window).
  const double p_grid =
      config_power_w(evaluator, conv, teg::ArrayConfig::uniform(40, 6));
  EXPECT_GE(p_inor, p_grid - 1e-9);
}

TEST(InorSearch, NearOptimalVsExhaustiveContiguous) {
  // The key claim of Algorithm 1: greedy balancing lands within a few
  // percent of the exhaustive contiguous optimum even on adversarially
  // shuffled (non-monotone) temperature profiles.
  util::Rng rng(11);
  const power::Converter conv(kConv);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> dts(12);
    for (auto& dt : dts) dt = rng.uniform(5.0, 40.0);
    const teg::TegArray array(kDev, dts);
    const teg::ArrayEvaluator evaluator(array);
    const ExhaustiveResult opt = exhaustive_contiguous_search(array, conv);
    const teg::ArrayConfig c =
        inor_search(array, conv, InorOptions{.nmin = 1, .nmax = 12});
    const double p = config_power_w(evaluator, conv, c);
    EXPECT_GE(p, 0.93 * opt.power_w) << "trial " << trial;
  }
}

TEST(InorSearch, NearOptimalOnMonotoneProfile) {
  // On the physical (monotone decaying) radiator profile the greedy
  // boundaries are essentially optimal.
  const power::Converter conv(kConv);
  const teg::TegArray array(kDev, decaying_delta_t(12, 38.0, 6.0));
  const teg::ArrayEvaluator evaluator(array);
  const ExhaustiveResult opt = exhaustive_contiguous_search(array, conv);
  const teg::ArrayConfig c =
      inor_search(array, conv, InorOptions{.nmin = 1, .nmax = 12});
  EXPECT_GE(config_power_w(evaluator, conv, c), 0.985 * opt.power_w);
}

TEST(InorSearch, RespectsExplicitWindow) {
  const teg::TegArray array(kDev, decaying_delta_t(20, 35.0, 8.0));
  const power::Converter conv(kConv);
  const teg::ArrayConfig c =
      inor_search(array, conv, InorOptions{.nmin = 4, .nmax = 6});
  EXPECT_GE(c.num_groups(), 4u);
  EXPECT_LE(c.num_groups(), 6u);
}

TEST(InorSearch, DerivedWindowKeepsVoltageNearConverterBand) {
  const teg::TegArray array(kDev, decaying_delta_t(100, 36.0, 7.0));
  const teg::ArrayEvaluator evaluator(array);
  const power::Converter conv(kConv);
  const teg::ArrayConfig c = inor_search(array, conv);
  const double vmpp = evaluator.string_equivalent(c).mpp_voltage_v();
  EXPECT_GT(vmpp, conv.params().min_input_v);
  EXPECT_LT(vmpp, conv.params().max_input_v);
}

TEST(InorSearch, BadWindowThrows) {
  const teg::TegArray array(kDev, decaying_delta_t(10, 30.0, 10.0));
  const power::Converter conv(kConv);
  EXPECT_THROW(inor_search(array, conv, InorOptions{.nmin = 5, .nmax = 4}),
               std::invalid_argument);
  EXPECT_THROW(inor_search(array, conv, InorOptions{.nmin = 1, .nmax = 11}),
               std::invalid_argument);
}

TEST(InorReconfigurer, HonoursPeriod) {
  InorReconfigurer rec(kDev, kConv, 0.5);
  const std::vector<double> dts = decaying_delta_t(20, 35.0, 8.0);
  const UpdateResult r0 = rec.update(0.0, dts, 25.0);
  EXPECT_TRUE(r0.invoked);
  EXPECT_TRUE(r0.actuate);
  const UpdateResult r1 = rec.update(0.25, dts, 25.0);  // mid-period
  EXPECT_FALSE(r1.invoked);
  EXPECT_FALSE(r1.actuate);
  EXPECT_EQ(r1.config, r0.config);
  const UpdateResult r2 = rec.update(0.5, dts, 25.0);  // next period
  EXPECT_TRUE(r2.invoked);
}

TEST(InorReconfigurer, SwitchedFlagTracksConfigChange) {
  InorReconfigurer rec(kDev, kConv, 0.5);
  const std::vector<double> dts = decaying_delta_t(20, 35.0, 8.0);
  rec.update(0.0, dts, 25.0);
  // Same temperatures: config identical, actuate still true (blind rebuild)
  // but switched false.
  const UpdateResult r = rec.update(0.5, dts, 25.0);
  EXPECT_TRUE(r.invoked);
  EXPECT_TRUE(r.actuate);
  EXPECT_FALSE(r.switched);
}

TEST(InorReconfigurer, ResetForgetsState) {
  InorReconfigurer rec(kDev, kConv, 10.0);
  const std::vector<double> dts = decaying_delta_t(20, 35.0, 8.0);
  rec.update(0.0, dts, 25.0);
  rec.reset();
  const UpdateResult r = rec.update(1.0, dts, 25.0);  // would be mid-period
  EXPECT_TRUE(r.invoked);
}

// The period test's slack must grow with the clock: from 2^24 s (about 194
// days) on, one ulp of the clock exceeds a fixed 1e-9 s, and a due time of
// last run + period can then round past the next sample k * dt.  Sampled
// on the stepper's grid, every due run runs and none runs early.
TEST(InorReconfigurer, RunsEveryDuePeriodLateInTheClock) {
  const std::vector<double> dts = decaying_delta_t(20, 35.0, 8.0);
  const auto mistimed = [&](double dt_s, double period_s, std::size_t every) {
    InorReconfigurer rec(kDev, kConv, period_s);
    const auto first = static_cast<std::size_t>(std::ldexp(1.0, 24) / dt_s);
    std::size_t wrong = 0;
    for (std::size_t k = 0; k < 400; ++k) {
      const double t = static_cast<double>(first + k) * dt_s;
      wrong += rec.update(t, dts, 25.0).invoked != (k % every == 0) ? 1 : 0;
    }
    return wrong;
  };
  EXPECT_EQ(mistimed(0.1, 0.1, 1), 0u);
  EXPECT_EQ(mistimed(0.2, 0.6, 3), 0u);
  EXPECT_EQ(mistimed(0.5, 0.5, 1), 0u);
}

// Group starts that describe no configuration are corruption: the restore
// throws the documented std::runtime_error and applies nothing.
TEST(InorReconfigurer, StateBlobRejectsABadHeldConfiguration) {
  InorReconfigurer rec(kDev, kConv, 0.5);
  rec.update(0.0, decaying_delta_t(20, 35.0, 8.0), 25.0);
  const std::string blob = rec.checkpoint_state();
  const std::string good = "\nconfig_starts = 0,";
  const std::size_t at = blob.find(good);
  ASSERT_NE(at, std::string::npos);
  std::string bad = blob;
  bad.replace(at, good.size(), "\nconfig_starts = 1,");  // must start at 0
  InorReconfigurer target(kDev, kConv, 0.5);
  const std::string before = target.checkpoint_state();
  EXPECT_THROW(target.restore_checkpoint_state(bad), std::runtime_error);
  EXPECT_EQ(target.checkpoint_state(), before);
  target.restore_checkpoint_state(blob);
  EXPECT_EQ(target.checkpoint_state(), blob);
}

TEST(InorReconfigurer, BadPeriodThrows) {
  EXPECT_THROW(InorReconfigurer(kDev, kConv, 0.0), std::invalid_argument);
}

// ---- galloping partition == the linear-walk oracle (tests/inor_oracle.hpp)

// MPP currents with runs of exactly-zero (stone-cold) modules, occasional
// repeated values (ties between neighbouring group sums) and, with
// `cold_tail`, a dead stretch at the end of the array.
std::vector<double> currents_with_cold_runs(util::Rng& rng, std::size_t n,
                                            bool cold_tail) {
  std::vector<double> out(n);
  std::size_t i = 0;
  while (i < n) {
    const int kind = rng.uniform_int(0, 9);
    const std::size_t run =
        static_cast<std::size_t>(rng.uniform_int(1, kind == 0 ? 12 : 4));
    const double value = kind == 0   ? 0.0
                         : kind == 1 ? 0.5
                                     : rng.uniform(0.01, 2.0);
    for (std::size_t k = 0; k < run && i < n; ++k, ++i) out[i] = value;
  }
  if (cold_tail) {
    for (std::size_t k = n - n / 4; k < n; ++k) out[k] = 0.0;
  }
  return out;
}

void expect_gallop_matches_walk(const std::vector<double>& impp, std::size_t n) {
  EXPECT_EQ(inor_partition(impp, n), oracle::inor_partition_linear(impp, n))
      << "N = " << impp.size() << ", n = " << n;
}

TEST(InorPartition, GallopEqualsLinearWalkOnColdRuns) {
  util::Rng rng(16);
  for (std::size_t size : {16u, 64u, 1000u}) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::vector<double> impp =
          currents_with_cold_runs(rng, size, trial % 3 == 2);
      expect_gallop_matches_walk(impp, 1);
      expect_gallop_matches_walk(impp, size);
      if (size <= 64) {
        for (std::size_t n = 2; n < size; ++n) expect_gallop_matches_walk(impp, n);
      } else {
        for (int k = 0; k < 40; ++k) {
          expect_gallop_matches_walk(
              impp, static_cast<std::size_t>(
                        rng.uniform_int(2, static_cast<int>(size) - 1)));
        }
      }
    }
  }
}

TEST(InorPartition, GallopEqualsLinearWalkOnDeadArrays) {
  for (std::size_t size : {16u, 64u, 1000u}) {
    const std::vector<double> dead(size, 0.0);
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, size / 3, size}) {
      expect_gallop_matches_walk(dead, n);
    }
  }
}

// Inputs whose group lengths differ wildly from the previous group's, the
// length each boundary search probes first.
std::vector<std::vector<double>> length_guess_breakers(std::size_t size) {
  util::Rng rng(size);
  std::vector<std::vector<double>> cases;
  // A 5-module hot block, then 500 near-zero modules, then ordinary ones.
  std::vector<double> hot_block(size);
  for (std::size_t i = 0; i < size; ++i) {
    hot_block[i] = i < 5 ? 40.0 : i < 505 ? rng.uniform(0.0, 1e-6)
                                         : rng.uniform(0.5, 2.0);
  }
  cases.push_back(hot_block);
  // A zero-current run over the middle half, which holds count / n for
  // n = 2 and n = 3.
  std::vector<double> zero_run(size);
  for (std::size_t i = 0; i < size; ++i) {
    const bool middle = i >= size / 4 && i < 3 * size / 4;
    zero_run[i] = middle ? 0.0 : rng.uniform(0.5, 2.0);
  }
  cases.push_back(zero_run);
  // One module carrying 99 % of the current.
  std::vector<double> dominant(size, 0.01 / static_cast<double>(size));
  dominant[size / 3] = 0.99;
  cases.push_back(dominant);
  // Currents rising 10^6-fold along the array.
  std::vector<double> rising(size);
  const double last = static_cast<double>(size - 1);
  for (std::size_t i = 0; i < size; ++i) {
    rising[i] = std::pow(1e6, static_cast<double>(i) / last);
  }
  cases.push_back(rising);
  // A +inf current at position k, and separately a NaN one.
  std::vector<double> infinite(size);
  for (double& x : infinite) x = rng.uniform(0.5, 2.0);
  std::vector<double> not_a_number = infinite;
  infinite[size / 3] = std::numeric_limits<double>::infinity();
  not_a_number[size / 3] = std::numeric_limits<double>::quiet_NaN();
  cases.push_back(infinite);
  cases.push_back(not_a_number);
  return cases;
}

TEST(InorPartition, GallopEqualsLinearWalkWhereTheLengthGuessIsWrong) {
  for (std::size_t size : {2u, 3u, 64u, 1000u}) {
    for (const std::vector<double>& impp : length_guess_breakers(size)) {
      for (std::size_t n = 1; n <= size; ++n) {
        expect_gallop_matches_walk(impp, n);
      }
    }
  }
}

TEST(InorPartition, GallopEqualsLinearWalkOverTheDerivedWindow) {
  // The n window the controllers actually scan, on physical profiles with
  // a cold (dT = 0) stretch in the middle.
  util::Rng rng(61);
  const power::Converter conv(kConv);
  for (std::size_t size : {16u, 64u, 1000u}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<double> dts = decaying_delta_t(size, 40.0, 5.0);
      for (double& dt : dts) dt = std::max(0.0, dt + rng.gaussian(0.0, 2.0));
      for (std::size_t i = size / 3; i < size / 3 + size / 8; ++i) dts[i] = 0.0;
      const teg::TegArray array(kDev, dts);
      const std::vector<double> impp = array.module_mpp_currents();
      const auto window = group_count_window(array, conv);
      for (std::size_t n = window.nmin; n <= window.nmax; ++n) {
        expect_gallop_matches_walk(impp, n);
      }
    }
  }
}

TEST(InorPartition, GallopRejectsWhatTheWalkRejects) {
  EXPECT_THROW(inor_partition({0.0, 1.0, -0.5}, 2), std::invalid_argument);
  EXPECT_THROW(oracle::inor_partition_linear({0.0, 1.0, -0.5}, 2),
               std::invalid_argument);
}

TEST(InorSearch, ScratchSearchEqualsOracleArgmax) {
  // inor_search over a port snapshot with reused scratch must pick what
  // the historical search picked: the oracle partition of every n in the
  // window, scored as an ArrayConfig, first strict maximum kept.
  util::Rng rng(7);
  const power::Converter conv(kConv);
  InorScratch scratch;
  teg::ArrayEvaluator evaluator;
  std::vector<teg::LinearSource> ports;
  for (std::size_t size : {16u, 64u, 1000u, 64u}) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<double> dts = decaying_delta_t(size, 38.0, 4.0);
      for (double& dt : dts) dt = std::max(0.0, dt + rng.gaussian(0.0, 3.0));
      const double ambient = rng.uniform(-10.0, 45.0);
      const teg::TegArray array(kDev, dts, ambient);
      const teg::ArrayEvaluator array_evaluator(array);
      const auto window = group_count_window(array, conv);
      double best_power = -1.0;
      teg::ArrayConfig expected;
      for (std::size_t n = window.nmin; n <= window.nmax; ++n) {
        teg::ArrayConfig candidate =
            oracle::inor_partition_linear(array.module_mpp_currents(), n);
        const double p = config_power_w(array_evaluator, conv, candidate);
        if (p > best_power) {
          best_power = p;
          expected = std::move(candidate);
        }
      }
      teg::module_ports(kDev, dts, ambient, ports);
      evaluator.assign(ports);
      EXPECT_EQ(inor_search(ports, evaluator, conv, {}, scratch), expected);
      EXPECT_EQ(inor_search(array, conv), expected);
    }
  }
}

// ---- bound-pruned search == the score-every-candidate argmax

TEST(InorSearch, PrunedSearchEqualsScoreEveryCandidateArgmax) {
  // The search skips the golden section on candidates whose certified
  // output-power bound is below the best score; the chosen config must
  // still be the first strict maximum over every candidate, scored.
  const std::vector<fixtures::ConverterVariant> variants =
      fixtures::converter_variants();
  std::vector<std::size_t> candidates(variants.size(), 0);
  std::vector<std::size_t> scored(variants.size(), 0);
  InorScratch scratch;
  teg::ArrayEvaluator evaluator;
  std::vector<teg::LinearSource> ports;
  for (const std::string& scenario : thermal::scenario_names()) {
    for (std::size_t size : {16u, 64u, 100u, 1000u}) {
      for (const fixtures::Field& field :
           fixtures::scenario_fields(scenario, 1, size, 4)) {
        const teg::TegArray array(kDev, field.delta_t_k, field.ambient_c);
        const teg::ArrayEvaluator array_evaluator(array);
        const std::vector<double> impp = array.module_mpp_currents();
        teg::module_ports(kDev, field.delta_t_k, field.ambient_c, ports);
        evaluator.assign(ports);
        for (std::size_t v = 0; v < variants.size(); ++v) {
          const power::Converter conv(variants[v].params);
          const auto window = group_count_window(array, conv);
          double best_power = -1.0;
          teg::ArrayConfig expected;
          for (std::size_t n = window.nmin; n <= window.nmax; ++n) {
            teg::ArrayConfig candidate = oracle::inor_partition_linear(impp, n);
            const double p = config_power_w(array_evaluator, conv, candidate);
            if (p > best_power) {
              best_power = p;
              expected = std::move(candidate);
            }
          }
          ASSERT_EQ(inor_search(ports, evaluator, conv, {}, scratch), expected)
              << scenario << ", N = " << size << ", " << variants[v].name;
          candidates[v] += window.nmax - window.nmin + 1;
          scored[v] += scratch.scored;
        }
      }
    }
  }
  for (std::size_t v = 0; v < variants.size(); ++v) {
    EXPECT_LT(scored[v], candidates[v])
        << "pruning never fired under " << variants[v].name;
  }
}

TEST(InorSearch, NanPortsAreScoredNeverPruned) {
  // NaN ports give NaN bounds, which compare false: every candidate runs
  // the golden section (each scores 0, outside the converter window), and
  // the first one stays the winner.
  const power::Converter conv(kConv);
  const std::vector<teg::LinearSource> ports(
      10, teg::LinearSource{std::numeric_limits<double>::quiet_NaN(), 1.0});
  const teg::ArrayEvaluator evaluator(ports);
  InorScratch scratch;
  EXPECT_EQ(inor_search(ports, evaluator, conv, {.nmin = 1, .nmax = 10}, scratch),
            teg::ArrayConfig::uniform(10, 1));
  EXPECT_EQ(scratch.scored, 10u);
}

TEST(InorSearch, NanModuleGetsTheDeadArrayWindow) {
  // One NaN module makes the mean module MPP voltage NaN; the derived
  // window is then {1, 1}, as for a dead array.
  std::vector<double> dts = decaying_delta_t(12, 36.0, 8.0);
  dts[5] = std::numeric_limits<double>::quiet_NaN();
  const teg::TegArray array(kDev, dts);
  const power::Converter conv(kConv);
  EXPECT_EQ(inor_search(array, conv),
            inor_search(array, conv, InorOptions{.nmin = 1, .nmax = 1}));
}

TEST(InorSearch, PortSearchRejectsMismatchedEvaluator) {
  const power::Converter conv(kConv);
  std::vector<teg::LinearSource> ports;
  teg::module_ports(kDev, decaying_delta_t(10, 30.0, 10.0), 25.0, ports);
  const teg::ArrayEvaluator evaluator(
      std::span<const teg::LinearSource>(ports).first(9));
  InorScratch scratch;
  EXPECT_THROW(inor_search(ports, evaluator, conv, {}, scratch),
               std::invalid_argument);
}

// Property: across window widths the INOR result never exceeds ideal power
// and always produces a valid partition.
class InorWindowSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InorWindowSweep, ValidAndBounded) {
  const std::size_t nmax = GetParam();
  const teg::TegArray array(kDev, decaying_delta_t(30, 36.0, 6.0));
  const teg::ArrayEvaluator evaluator(array);
  const power::Converter conv(kConv);
  const teg::ArrayConfig c =
      inor_search(array, conv, InorOptions{.nmin = 1, .nmax = nmax});
  EXPECT_LE(c.num_groups(), nmax);
  EXPECT_LE(config_power_w(evaluator, conv, c),
            array.ideal_power_w() + 1e-9);
  std::size_t covered = 0;
  for (std::size_t j = 0; j < c.num_groups(); ++j) {
    covered += c.group_end(j) - c.group_begin(j);
  }
  EXPECT_EQ(covered, 30u);
}

INSTANTIATE_TEST_SUITE_P(Windows, InorWindowSweep,
                         ::testing::Values(1, 2, 5, 10, 20, 30));

}  // namespace
}  // namespace tegrec::core
