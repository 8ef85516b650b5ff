#include <gtest/gtest.h>

#include "core/objective.hpp"
#include "exhaustive_oracle.hpp"
#include "teg/array.hpp"

namespace tegrec::core {
namespace {

using oracle::exhaustive_contiguous_search;
using oracle::exhaustive_set_partition_search;
using oracle::ExhaustiveResult;
using oracle::SetPartitionResult;

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

TEST(ExhaustiveContiguous, EnumeratesAllPartitions) {
  const teg::TegArray array(kDev, {30.0, 25.0, 20.0, 15.0});
  const power::Converter conv(kConv);
  const ExhaustiveResult res = exhaustive_contiguous_search(array, conv);
  EXPECT_EQ(res.evaluated, 8u);  // 2^(4-1)
  EXPECT_GT(res.power_w, 0.0);
}

TEST(ExhaustiveContiguous, FindsTrueOptimum) {
  // Verify against a manual scan of all masks for a 5-module array.
  const teg::TegArray array(kDev, {35.0, 30.0, 18.0, 12.0, 8.0});
  const teg::ArrayEvaluator evaluator(array);
  const power::Converter conv(kConv);
  const ExhaustiveResult res = exhaustive_contiguous_search(array, conv);
  double best = -1.0;
  for (std::size_t mask = 0; mask < 16; ++mask) {
    std::vector<std::size_t> starts{0};
    for (std::size_t i = 0; i < 4; ++i) {
      if (mask & (std::size_t{1} << i)) starts.push_back(i + 1);
    }
    best = std::max(
        best, config_power_w(evaluator, conv, teg::ArrayConfig(starts, 5)));
  }
  EXPECT_NEAR(res.power_w, best, 1e-12);
}

TEST(ExhaustiveContiguous, BoundedByIdeal) {
  const teg::TegArray array(kDev, {28.0, 22.0, 16.0, 10.0, 6.0, 4.0});
  const power::Converter conv(kConv);
  const ExhaustiveResult res = exhaustive_contiguous_search(array, conv);
  EXPECT_LE(res.power_w, array.ideal_power_w() + 1e-9);
}

TEST(ExhaustiveContiguous, TooLargeThrows) {
  const teg::TegArray array(kDev, std::vector<double>(25, 20.0));
  const power::Converter conv(kConv);
  EXPECT_THROW(exhaustive_contiguous_search(array, conv), std::invalid_argument);
}

TEST(ExhaustiveSetPartition, BeatsOrMatchesContiguous) {
  // The unconstrained grouping space contains every contiguous grouping.
  const teg::TegArray array(kDev, {34.0, 14.0, 30.0, 10.0, 26.0, 6.0});
  const power::Converter conv(kConv);
  const ExhaustiveResult contiguous = exhaustive_contiguous_search(array, conv);
  const SetPartitionResult full = exhaustive_set_partition_search(array, conv);
  EXPECT_GE(full.power_w, contiguous.power_w - 1e-9);
  EXPECT_EQ(full.evaluated, 203u);  // Bell(6)
}

TEST(ExhaustiveSetPartition, ShuffledProfileGainsFromNonContiguity) {
  // With temperatures interleaved hot/cold, non-contiguous grouping can
  // assemble matched groups that contiguity forbids — quantifying the cost
  // of the paper's fabric restriction.
  const teg::TegArray array(kDev, {36.0, 8.0, 36.0, 8.0, 36.0, 8.0});
  const power::Converter conv(kConv);
  const ExhaustiveResult contiguous = exhaustive_contiguous_search(array, conv);
  const SetPartitionResult full = exhaustive_set_partition_search(array, conv);
  EXPECT_GT(full.power_w, contiguous.power_w + 1e-6);
}

TEST(ExhaustiveSetPartition, MonotoneProfileContiguityIsFree) {
  // On a monotone profile (the physical radiator case) contiguous grouping
  // is essentially optimal — the design justification of Fig. 2/Alg. 1.
  const teg::TegArray array(kDev, {34.0, 27.0, 21.0, 16.0, 12.0, 9.0});
  const power::Converter conv(kConv);
  const ExhaustiveResult contiguous = exhaustive_contiguous_search(array, conv);
  const SetPartitionResult full = exhaustive_set_partition_search(array, conv);
  EXPECT_GE(contiguous.power_w, 0.995 * full.power_w);
}

TEST(ExhaustiveSetPartition, TooLargeThrows) {
  const teg::TegArray array(kDev, std::vector<double>(13, 20.0));
  const power::Converter conv(kConv);
  EXPECT_THROW(exhaustive_set_partition_search(array, conv),
               std::invalid_argument);
}

}  // namespace
}  // namespace tegrec::core
