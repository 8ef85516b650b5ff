#include "core/ehtr.hpp"

#include <gtest/gtest.h>

#include "core/inor.hpp"
#include "core/objective.hpp"
#include "util/rng.hpp"

namespace tegrec::core {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

// Brute-force optimal contiguous partition into exactly n groups by squared
// group-sum cost (reference for the DP).
double brute_force_cost(const std::vector<double>& impp, std::size_t n) {
  const std::size_t count = impp.size();
  std::vector<double> prefix(count + 1, 0.0);
  for (std::size_t i = 0; i < count; ++i) prefix[i + 1] = prefix[i] + impp[i];
  double best = 1e300;
  // Enumerate boundary masks with exactly n-1 boundaries.
  const std::size_t masks = std::size_t{1} << (count - 1);
  for (std::size_t mask = 0; mask < masks; ++mask) {
    if (static_cast<std::size_t>(__builtin_popcountll(mask)) != n - 1) continue;
    double cost = 0.0;
    std::size_t start = 0;
    for (std::size_t i = 0; i + 1 < count; ++i) {
      if (mask & (std::size_t{1} << i)) {
        const double s = prefix[i + 1] - prefix[start];
        cost += s * s;
        start = i + 1;
      }
    }
    const double s = prefix[count] - prefix[start];
    cost += s * s;
    best = std::min(best, cost);
  }
  return best;
}

double config_cost(const std::vector<double>& impp, const teg::ArrayConfig& c) {
  double cost = 0.0;
  for (std::size_t j = 0; j < c.num_groups(); ++j) {
    double s = 0.0;
    for (std::size_t i = c.group_begin(j); i < c.group_end(j); ++i) s += impp[i];
    cost += s * s;
  }
  return cost;
}

TEST(BalancedPartitions, MatchesBruteForceOnRandomInputs) {
  util::Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> impp(10);
    for (auto& x : impp) x = rng.uniform(0.2, 2.0);
    const auto partitions = balanced_partitions(impp, 10);
    ASSERT_EQ(partitions.size(), 10u);
    for (std::size_t n = 1; n <= 10; ++n) {
      const teg::ArrayConfig& c = partitions[n - 1];
      EXPECT_EQ(c.num_groups(), n);
      EXPECT_NEAR(config_cost(impp, c), brute_force_cost(impp, n), 1e-9)
          << "trial " << trial << " n " << n;
    }
  }
}

TEST(BalancedPartitions, SingleGroupAndAllSingletons) {
  const std::vector<double> impp{1.0, 2.0, 3.0};
  const auto partitions = balanced_partitions(impp, 3);
  EXPECT_EQ(partitions[0], teg::ArrayConfig::all_parallel(3));
  EXPECT_EQ(partitions[2], teg::ArrayConfig::all_series(3));
}

TEST(BalancedPartitions, InvalidArgsThrow) {
  EXPECT_THROW(balanced_partitions({}, 1), std::invalid_argument);
  EXPECT_THROW(balanced_partitions({1.0}, 2), std::invalid_argument);
  EXPECT_THROW(balanced_partitions({1.0}, 0), std::invalid_argument);
  EXPECT_THROW(balanced_partitions({1.0, -0.5}, 1), std::invalid_argument);
}

TEST(EhtrSearch, AtLeastAsGoodAsInorPerInstant) {
  // EHTR searches the superset (optimal partition, all n), so its
  // instantaneous charger-aware power must match or beat greedy INOR.
  util::Rng rng(23);
  const power::Converter conv(kConv);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<double> dts(16);
    for (auto& dt : dts) dt = rng.uniform(6.0, 38.0);
    const teg::TegArray array(kDev, dts);
    const teg::ArrayEvaluator evaluator(array);
    const double p_ehtr =
        config_power_w(evaluator, conv, ehtr_search(array, conv));
    const double p_inor = config_power_w(
        evaluator, conv,
        inor_search(array, conv, InorOptions{.nmin = 1, .nmax = 16}));
    EXPECT_GE(p_ehtr, p_inor - 1e-9) << "trial " << trial;
  }
}

TEST(EhtrSearch, NeverExceedsIdeal) {
  const power::Converter conv(kConv);
  std::vector<double> dts(20);
  for (std::size_t i = 0; i < dts.size(); ++i) dts[i] = 36.0 - 1.5 * i;
  const teg::TegArray array(kDev, dts);
  const teg::ArrayEvaluator evaluator(array);
  EXPECT_LE(config_power_w(evaluator, conv, ehtr_search(array, conv)),
            array.ideal_power_w() + 1e-9);
}

TEST(EhtrReconfigurer, PeriodicBehaviour) {
  EhtrReconfigurer rec(kDev, kConv, 0.5);
  std::vector<double> dts(12);
  for (std::size_t i = 0; i < dts.size(); ++i) dts[i] = 30.0 - 2.0 * i;
  const UpdateResult r0 = rec.update(0.0, dts, 25.0);
  EXPECT_TRUE(r0.invoked);
  EXPECT_TRUE(r0.actuate);
  const UpdateResult r1 = rec.update(0.2, dts, 25.0);
  EXPECT_FALSE(r1.invoked);
  const UpdateResult r2 = rec.update(0.5, dts, 25.0);
  EXPECT_TRUE(r2.invoked);
  EXPECT_TRUE(r2.actuate);
  EXPECT_FALSE(r2.switched);  // same temps, same config
}

TEST(EhtrReconfigurer, ResetAndBadPeriod) {
  EXPECT_THROW(EhtrReconfigurer(kDev, kConv, -1.0), std::invalid_argument);
  EhtrReconfigurer rec(kDev, kConv, 100.0);
  std::vector<double> dts(8, 20.0);
  rec.update(0.0, dts, 25.0);
  rec.reset();
  EXPECT_TRUE(rec.update(1.0, dts, 25.0).invoked);
}

// DP vs greedy balance quality across group counts: the DP cost is a lower
// bound on the greedy cost.
class DpVsGreedy : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DpVsGreedy, DpBalancesNoWorse) {
  const std::size_t n = GetParam();
  util::Rng rng(100 + n);
  std::vector<double> impp(14);
  for (auto& x : impp) x = rng.uniform(0.3, 1.8);
  const auto dp = balanced_partitions(impp, 14)[n - 1];
  const auto greedy = inor_partition(impp, n);
  EXPECT_LE(config_cost(impp, dp), config_cost(impp, greedy) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(GroupCounts, DpVsGreedy,
                         ::testing::Values(1, 2, 3, 5, 7, 10, 14));

}  // namespace
}  // namespace tegrec::core
