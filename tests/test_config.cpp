#include "teg/config.hpp"

#include <gtest/gtest.h>

#include "boundary_oracle.hpp"

namespace tegrec::teg {
namespace {

TEST(ArrayConfig, ValidConstruction) {
  const ArrayConfig c({0, 3, 7}, 10);
  EXPECT_EQ(c.num_modules(), 10u);
  EXPECT_EQ(c.num_groups(), 3u);
  EXPECT_EQ(c.group_begin(0), 0u);
  EXPECT_EQ(c.group_end(0), 3u);
  EXPECT_EQ(c.group_begin(2), 7u);
  EXPECT_EQ(c.group_end(2), 10u);
  EXPECT_EQ(c.group_end(1) - c.group_begin(1), 4u);
}

TEST(ArrayConfig, InvalidConstructionThrows) {
  EXPECT_THROW(ArrayConfig({1, 3}, 10), std::invalid_argument);   // not from 0
  EXPECT_THROW(ArrayConfig({}, 10), std::invalid_argument);       // empty
  EXPECT_THROW(ArrayConfig({0, 3, 3}, 10), std::invalid_argument);// duplicate
  EXPECT_THROW(ArrayConfig({0, 5, 3}, 10), std::invalid_argument);// not sorted
  EXPECT_THROW(ArrayConfig({0, 10}, 10), std::invalid_argument);  // past end
  EXPECT_THROW(ArrayConfig({0}, 0), std::invalid_argument);       // N == 0
}

TEST(ArrayConfig, SeriesBoundaries) {
  const ArrayConfig c({0, 3, 7}, 10);
  // Boundaries between modules 2|3 and 6|7 are series; all others parallel.
  for (std::size_t i = 0; i + 1 < 10; ++i) {
    const bool expected = (i == 2 || i == 6);
    EXPECT_EQ(oracle::is_series_boundary(c, i), expected) << "adjacency " << i;
  }
  EXPECT_THROW(oracle::is_series_boundary(c, 9), std::out_of_range);
}

TEST(ArrayConfig, UniformSplits) {
  const ArrayConfig c = ArrayConfig::uniform(100, 10);
  EXPECT_EQ(c.num_groups(), 10u);
  for (std::size_t j = 0; j < 10; ++j) {
    EXPECT_EQ(c.group_end(j) - c.group_begin(j), 10u);
  }
}

TEST(ArrayConfig, UniformNonDivisible) {
  const ArrayConfig c = ArrayConfig::uniform(10, 3);
  EXPECT_EQ(c.num_groups(), 3u);
  std::size_t total = 0;
  for (std::size_t j = 0; j < c.num_groups(); ++j) {
    total += c.group_end(j) - c.group_begin(j);
  }
  EXPECT_EQ(total, 10u);
}

TEST(ArrayConfig, UniformHasExactlyTheRequestedGroups) {
  // The starts j*N/n strictly increase for n <= N, so no group collapses.
  for (std::size_t num_modules = 1; num_modules <= 200; ++num_modules) {
    for (std::size_t groups = 1; groups <= num_modules; ++groups) {
      ASSERT_EQ(ArrayConfig::uniform(num_modules, groups).num_groups(), groups)
          << "N=" << num_modules;
    }
  }
}

TEST(ArrayConfig, UniformBadArgsThrow) {
  EXPECT_THROW(ArrayConfig::uniform(10, 0), std::invalid_argument);
  EXPECT_THROW(ArrayConfig::uniform(10, 11), std::invalid_argument);
}

TEST(ArrayConfig, AllParallelAllSeries) {
  const ArrayConfig p = ArrayConfig::all_parallel(5);
  EXPECT_EQ(p.num_groups(), 1u);
  EXPECT_EQ(p.group_end(0) - p.group_begin(0), 5u);
  const ArrayConfig s = ArrayConfig::all_series(5);
  EXPECT_EQ(s.num_groups(), 5u);
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(s.group_end(j) - s.group_begin(j), 1u);
  }
}

TEST(ArrayConfig, BoundaryDistanceProperties) {
  const ArrayConfig a({0, 3, 7}, 10);
  const ArrayConfig b({0, 4, 7}, 10);
  // Self-distance zero, symmetry.
  EXPECT_EQ(a.boundary_distance(a), 0u);
  EXPECT_EQ(a.boundary_distance(b), b.boundary_distance(a));
  // a vs b: boundary 2|3 removed, 3|4 added -> 2 adjacencies differ.
  EXPECT_EQ(a.boundary_distance(b), 2u);
  // Extremes: all-series vs all-parallel flips every adjacency.
  EXPECT_EQ(ArrayConfig::all_series(10).boundary_distance(
                ArrayConfig::all_parallel(10)),
            9u);
}

TEST(ArrayConfig, BoundaryDistanceSizeMismatchThrows) {
  EXPECT_THROW(
      ArrayConfig::all_parallel(5).boundary_distance(ArrayConfig::all_parallel(6)),
      std::invalid_argument);
}

TEST(ArrayConfig, Equality) {
  const ArrayConfig a({0, 3}, 6);
  const ArrayConfig b({0, 3}, 6);
  const ArrayConfig c({0, 4}, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, ArrayConfig({0, 3}, 7));
}

TEST(ArrayConfig, GroupIndexOutOfRangeThrows) {
  const ArrayConfig c({0, 3}, 6);
  EXPECT_THROW(c.group_begin(2), std::out_of_range);
  EXPECT_THROW(c.group_end(2), std::out_of_range);
}

// Partition property: group sizes always sum to N and cover [0, N) without
// overlap, for a sweep of group counts.
class ConfigPartition : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConfigPartition, GroupsPartitionModules) {
  const std::size_t n_groups = GetParam();
  const ArrayConfig c = ArrayConfig::uniform(37, n_groups);
  std::vector<bool> covered(37, false);
  for (std::size_t j = 0; j < c.num_groups(); ++j) {
    for (std::size_t i = c.group_begin(j); i < c.group_end(j); ++i) {
      EXPECT_FALSE(covered[i]) << "module " << i << " covered twice";
      covered[i] = true;
    }
  }
  for (std::size_t i = 0; i < 37; ++i) EXPECT_TRUE(covered[i]);
}

INSTANTIATE_TEST_SUITE_P(GroupCounts, ConfigPartition,
                         ::testing::Values(1, 2, 5, 17, 36, 37));

}  // namespace
}  // namespace tegrec::teg
