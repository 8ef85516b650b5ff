// Equivalence and determinism suite for the optimised EHTR hot path:
//  * the divide-and-conquer partition DP must reproduce the legacy cubic
//    oracle's partition costs bit-for-bit (same objective, same tie-break),
//  * ArrayEvaluator's cached scoring must match direct port summation
//    (in_series over in_parallel of module ports) to 1e-12 relative,
//  * parallel candidate scoring must be bit-identical for every thread
//    count, end to end through the simulator,
//  * an all-NaN temperature field must degrade to the first candidate
//    instead of dereferencing a null best (regression).
#include "core/ehtr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/objective.hpp"
#include "port_oracle.hpp"
#include "sim/simulator.hpp"
#include "teg/array_evaluator.hpp"
#include "thermal/trace.hpp"
#include "util/rng.hpp"

namespace tegrec::core {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

// Partition cost recomputed exactly the way the DP accumulates it: squared
// prefix-difference per group, summed in group order.  Used on both DPs'
// outputs so equal partitions (or equal-cost ties) compare bit-identically.
double partition_cost(const std::vector<double>& impp,
                      const teg::ArrayConfig& c) {
  std::vector<double> prefix(impp.size() + 1, 0.0);
  for (std::size_t i = 0; i < impp.size(); ++i) prefix[i + 1] = prefix[i] + impp[i];
  double cost = 0.0;
  for (std::size_t j = 0; j < c.num_groups(); ++j) {
    const double s = prefix[c.group_end(j)] - prefix[c.group_begin(j)];
    cost += s * s;
  }
  return cost;
}

TEST(PartitionDpEquivalence, DcMatchesLegacyOracleAcrossSeeds) {
  // >= 20 random seeds, sizes up to 512 (acceptance criterion).
  const std::size_t sizes[] = {512, 3,   5,   9,   17,  33,  48,  64,  70, 96,
                               100, 128, 150, 200, 250, 257, 300, 350, 400, 450};
  for (std::size_t trial = 0; trial < 20; ++trial) {
    util::Rng rng(1000 + trial);
    const std::size_t n = sizes[trial];
    std::vector<double> impp(n);
    for (auto& x : impp) x = rng.uniform(0.05, 2.5);
    const auto dc = balanced_partitions(impp, n, PartitionDp::kDivideAndConquer);
    const auto legacy = balanced_partitions(impp, n, PartitionDp::kLegacyCubic);
    ASSERT_EQ(dc.size(), n);
    ASSERT_EQ(legacy.size(), n);
    for (std::size_t g = 0; g < n; ++g) {
      ASSERT_EQ(dc[g].num_groups(), g + 1);
      // Bit-identical cost; with continuous random currents the argmin is
      // unique, so the partitions themselves coincide too.
      EXPECT_EQ(partition_cost(impp, dc[g]), partition_cost(impp, legacy[g]))
          << "seed " << trial << " n " << n << " groups " << g + 1;
      EXPECT_EQ(dc[g], legacy[g])
          << "seed " << trial << " n " << n << " groups " << g + 1;
    }
  }
}

TEST(PartitionDpEquivalence, DcMatchesLegacyWithTiesAndZeros) {
  // Stone-cold modules (zero current) create exact cost ties; both DPs must
  // resolve them with the same lowest-k rule.
  util::Rng rng(7);
  for (std::size_t trial = 0; trial < 8; ++trial) {
    std::vector<double> impp(64);
    for (auto& x : impp) {
      x = rng.uniform(0.0, 1.0) < 0.35 ? 0.0 : rng.uniform(0.5, 1.5);
    }
    const auto dc = balanced_partitions(impp, 64, PartitionDp::kDivideAndConquer);
    const auto legacy = balanced_partitions(impp, 64, PartitionDp::kLegacyCubic);
    for (std::size_t g = 0; g < 64; ++g) {
      EXPECT_EQ(partition_cost(impp, dc[g]), partition_cost(impp, legacy[g]))
          << "trial " << trial << " groups " << g + 1;
      EXPECT_EQ(dc[g], legacy[g]) << "trial " << trial << " groups " << g + 1;
    }
  }
}

TEST(ArrayEvaluatorSuite, MatchesDirectSummationAcrossRandomFields) {
  util::Rng rng(41);
  for (std::size_t trial = 0; trial < 10; ++trial) {
    std::vector<double> dts(40);
    for (auto& dt : dts) dt = rng.uniform(2.0, 45.0);
    const teg::TegArray array(kDev, dts);
    const teg::ArrayEvaluator evaluator(array);
    const power::Converter conv(kConv);

    // A spread of configurations: extremes, uniform grids, random partitions.
    std::vector<teg::ArrayConfig> configs{
        teg::ArrayConfig::all_parallel(40), teg::ArrayConfig::all_series(40),
        teg::ArrayConfig::uniform(40, 5), teg::ArrayConfig::uniform(40, 13)};
    for (int extra = 0; extra < 4; ++extra) {
      std::vector<std::size_t> starts{0};
      for (std::size_t i = 1; i < 40; ++i) {
        if (rng.uniform(0.0, 1.0) < 0.3) starts.push_back(i);
      }
      configs.emplace_back(std::move(starts), 40);
    }

    for (const teg::ArrayConfig& c : configs) {
      const teg::LinearSource direct = oracle::direct_string_port(array, c);
      const teg::LinearSource port = evaluator.string_equivalent(c);
      const double tol_v = 1e-12 * std::max(1.0, std::abs(direct.voc_v));
      const double tol_r = 1e-12 * std::max(1.0, std::abs(direct.r_ohm));
      EXPECT_NEAR(port.voc_v, direct.voc_v, tol_v);
      EXPECT_NEAR(port.r_ohm, direct.r_ohm, tol_r);

      const double p_string =
          power::optimal_operating_point(direct, conv).output_power_w;
      const double p_cached = config_power_w(evaluator, conv, c);
      EXPECT_NEAR(p_cached, p_string, 1e-12 * std::max(1.0, std::abs(p_string)))
          << "trial " << trial << " config " << c.to_string();
    }
  }
}

TEST(ArrayEvaluatorSuite, GroupEquivalentMatchesInParallel) {
  std::vector<double> dts(12);
  for (std::size_t i = 0; i < dts.size(); ++i) dts[i] = 8.0 + 2.5 * static_cast<double>(i);
  const teg::TegArray array(kDev, dts);
  const teg::ArrayEvaluator evaluator(array);
  for (std::size_t b = 0; b < 12; ++b) {
    for (std::size_t e = b + 1; e <= 12; ++e) {
      const teg::LinearSource group = oracle::direct_group_port(array, b, e);
      const teg::LinearSource src = evaluator.group_equivalent(b, e);
      EXPECT_NEAR(src.voc_v, group.voc_v, 1e-12 * std::max(1.0, group.voc_v));
      EXPECT_NEAR(src.r_ohm, group.r_ohm, 1e-12 * std::max(1.0, group.r_ohm));
    }
  }
  EXPECT_THROW(evaluator.group_equivalent(3, 3), std::out_of_range);
  EXPECT_THROW(evaluator.group_equivalent(0, 13), std::out_of_range);
}

TEST(ArrayEvaluatorSuite, IdealPowerMatchesArray) {
  std::vector<double> dts(25);
  for (std::size_t i = 0; i < dts.size(); ++i) dts[i] = 5.0 + 1.7 * static_cast<double>(i);
  const teg::TegArray array(kDev, dts);
  const teg::ArrayEvaluator evaluator(array);
  // Same accumulation order as TegArray::ideal_power_w -> bit-identical.
  EXPECT_EQ(evaluator.ideal_power_w(), array.ideal_power_w());
}

TEST(EhtrParallel, SearchIsThreadCountInvariant) {
  util::Rng rng(91);
  const power::Converter conv(kConv);
  for (std::size_t trial = 0; trial < 4; ++trial) {
    std::vector<double> dts(48);
    for (auto& dt : dts) dt = rng.uniform(4.0, 40.0);
    const teg::TegArray array(kDev, dts);
    const teg::ArrayConfig serial = ehtr_search(array, conv, 1);
    const teg::ArrayConfig four = ehtr_search(array, conv, 4);
    const teg::ArrayConfig hw = ehtr_search(array, conv, 0);
    EXPECT_EQ(serial, four) << "trial " << trial;
    EXPECT_EQ(serial, hw) << "trial " << trial;
  }
}

TEST(EhtrParallel, DcAndLegacySearchesAgree) {
  util::Rng rng(133);
  const power::Converter conv(kConv);
  for (std::size_t trial = 0; trial < 4; ++trial) {
    std::vector<double> dts(32);
    for (auto& dt : dts) dt = rng.uniform(4.0, 40.0);
    const teg::TegArray array(kDev, dts);
    EXPECT_EQ(ehtr_search(array, conv, 1, PartitionDp::kDivideAndConquer),
              ehtr_search(array, conv, 1, PartitionDp::kLegacyCubic))
        << "trial " << trial;
  }
}

TEST(PartitionDpEquivalence, RejectsNonFiniteCurrents) {
  // The bit-identical d&c/oracle contract only holds for finite inputs, so
  // the DP refuses NaN/inf outright; ehtr_search sanitises before calling.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(balanced_partitions({1.0, nan, 1.0}, 2), std::invalid_argument);
  EXPECT_THROW(
      balanced_partitions({1.0, std::numeric_limits<double>::infinity()}, 2),
      std::invalid_argument);
}

TEST(EhtrParallel, AllNanFieldReturnsFirstCandidate) {
  // Regression: every candidate scores NaN (below the -1.0 sentinel); the
  // search must return the first candidate, not dereference a null best.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> dts(10, nan);
  const teg::TegArray array(kDev, dts, 25.0);
  const power::Converter conv(kConv);
  const teg::ArrayConfig c = ehtr_search(array, conv, 1);
  EXPECT_EQ(c, teg::ArrayConfig::all_parallel(10));
  // The parallel path takes the same fallback.
  EXPECT_EQ(ehtr_search(array, conv, 4), teg::ArrayConfig::all_parallel(10));
}

// End-to-end: an EHTR-driven simulation must produce bit-identical chosen
// configs and energies for any thread count (acceptance criterion).
TEST(EhtrParallel, SimulationBitIdenticalAcrossThreadCounts) {
  thermal::TemperatureTrace trace(0.5, 16);
  for (std::size_t t = 0; t < 40; ++t) {
    std::vector<double> temps(16);
    for (std::size_t i = 0; i < 16; ++i) {
      temps[i] = 25.0 + 30.0 * std::exp(-static_cast<double>(i) / 8.0) +
                 3.0 * std::sin(0.3 * static_cast<double>(t) +
                                0.7 * static_cast<double>(i));
    }
    trace.append(temps, 25.0);
  }

  auto run = [&](std::size_t num_threads) {
    sim::SimulationOptions options;
    options.num_threads = num_threads;
    core::EhtrReconfigurer ehtr(options.device, options.converter, 0.5,
                                num_threads);
    return sim::run_simulation(ehtr, trace, options);
  };
  const sim::SimulationResult one = run(1);
  const sim::SimulationResult four = run(4);

  EXPECT_EQ(one.energy_output_j, four.energy_output_j);
  EXPECT_EQ(one.switch_overhead_j, four.switch_overhead_j);
  EXPECT_EQ(one.battery_energy_j, four.battery_energy_j);
  EXPECT_EQ(one.num_switch_events, four.num_switch_events);
  EXPECT_EQ(one.total_switch_actuations, four.total_switch_actuations);
  ASSERT_EQ(one.steps.size(), four.steps.size());
  for (std::size_t t = 0; t < one.steps.size(); ++t) {
    EXPECT_EQ(one.steps[t].gross_power_w, four.steps[t].gross_power_w) << t;
    EXPECT_EQ(one.steps[t].net_power_w, four.steps[t].net_power_w) << t;
    EXPECT_EQ(one.steps[t].switch_actuations, four.steps[t].switch_actuations) << t;
  }
}

}  // namespace
}  // namespace tegrec::core
