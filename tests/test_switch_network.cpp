#include "switchfab/switch_network.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace tegrec::switchfab {
namespace {

using teg::ArrayConfig;

TEST(SwitchCell, ValidityRules) {
  SwitchCell c;  // default: parallel (both parallel closed, series open)
  EXPECT_TRUE(c.is_valid());
  EXPECT_FALSE(c.is_series());
  c.series_closed = true;  // series AND parallel simultaneously: short!
  EXPECT_FALSE(c.is_valid());
  c.parallel_top_closed = false;
  c.parallel_bottom_closed = false;
  EXPECT_TRUE(c.is_valid());
  EXPECT_TRUE(c.is_series());
  c.parallel_top_closed = true;  // half-parallel with series: invalid
  EXPECT_FALSE(c.is_valid());
}

TEST(SwitchNetwork, DefaultIsAllParallel) {
  const SwitchNetwork net(5);
  EXPECT_EQ(net.num_cells(), 4u);
  EXPECT_TRUE(net.is_valid());
  EXPECT_EQ(net.current_config(), ArrayConfig::all_parallel(5));
  EXPECT_EQ(net.total_actuations(), 0u);
}

TEST(SwitchNetwork, ConstructionWithConfig) {
  const ArrayConfig c({0, 2, 4}, 6);
  const SwitchNetwork net(6, c);
  EXPECT_EQ(net.current_config(), c);
  EXPECT_TRUE(net.is_valid());
  EXPECT_EQ(net.total_actuations(), 0u);  // initial wiring is free
}

TEST(SwitchNetwork, TooSmallThrows) {
  EXPECT_THROW(SwitchNetwork(1), std::invalid_argument);
}

TEST(SwitchNetwork, SizeMismatchThrows) {
  SwitchNetwork net(5);
  EXPECT_THROW(net.apply(ArrayConfig::all_parallel(6)), std::invalid_argument);
  EXPECT_THROW(net.apply(ArrayConfig::all_parallel(4)), std::invalid_argument);
  // A rejected config actuates nothing.
  EXPECT_EQ(net.total_actuations(), 0u);
  EXPECT_EQ(net.current_config(), ArrayConfig::all_parallel(5));
}

TEST(SwitchNetwork, ApplyFlipsExactlyTheSymmetricDifference) {
  SwitchNetwork net(12);
  const ArrayConfig a({0, 4, 8}, 12);
  const ArrayConfig b({0, 3, 6, 9}, 12);
  net.apply(a);
  std::vector<bool> before(net.num_cells());
  for (std::size_t i = 0; i < before.size(); ++i) {
    before[i] = net.cell(i).series_closed;
  }
  // Symmetric difference of series boundaries {4,8} and {3,6,9}: all five
  // differ, i.e. cells 2, 3, 5, 7, 8.
  EXPECT_EQ(net.apply(b), 3u * a.boundary_distance(b));
  std::vector<std::size_t> flipped;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (net.cell(i).series_closed != before[i]) flipped.push_back(i);
  }
  EXPECT_EQ(flipped, (std::vector<std::size_t>{2, 3, 5, 7, 8}));
  EXPECT_EQ(net.total_actuations(), 3u * (2u + 5u));
  EXPECT_EQ(net.current_config(), b);
}

TEST(SwitchNetwork, ApplyCountsThreeSwitchesPerFlippedAdjacency) {
  SwitchNetwork net(10);  // all parallel
  const ArrayConfig c({0, 5}, 10);  // one series boundary at 4|5
  const std::size_t actuated = net.apply(c);
  EXPECT_EQ(actuated, 3u);
  EXPECT_EQ(net.total_actuations(), 3u);
  EXPECT_EQ(net.reconfiguration_events(), 1u);
  EXPECT_EQ(net.current_config(), c);
}

TEST(SwitchNetwork, ReapplySameConfigIsFree) {
  SwitchNetwork net(10);
  const ArrayConfig c({0, 5}, 10);
  net.apply(c);
  const std::size_t again = net.apply(c);
  EXPECT_EQ(again, 0u);
  EXPECT_EQ(net.reconfiguration_events(), 1u);  // no-op apply not counted
}

TEST(SwitchNetwork, ActuationsMatchBoundaryDistance) {
  SwitchNetwork net(12);
  const ArrayConfig a({0, 4, 8}, 12);
  const ArrayConfig b({0, 3, 6, 9}, 12);
  net.apply(a);
  const std::size_t actuated = net.apply(b);
  EXPECT_EQ(actuated, 3u * a.boundary_distance(b));
}

TEST(SwitchNetwork, StateAlwaysValidUnderRandomConfigs) {
  // Property: any sequence of applies keeps every cell in exactly one
  // connection state, and current_config() round-trips.
  util::Rng rng(31);
  const std::size_t n = 20;
  SwitchNetwork net(n);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::size_t> starts{0};
    for (std::size_t i = 1; i < n; ++i) {
      if (rng.bernoulli(0.3)) starts.push_back(i);
    }
    const ArrayConfig c(starts, n);
    net.apply(c);
    EXPECT_TRUE(net.is_valid());
    EXPECT_EQ(net.current_config(), c);
  }
}

TEST(SwitchNetwork, TotalActuationsAccumulate) {
  SwitchNetwork net(6);
  const ArrayConfig a = ArrayConfig::all_series(6);
  const ArrayConfig b = ArrayConfig::all_parallel(6);
  net.apply(a);  // 5 adjacencies flip: 15 actuations
  net.apply(b);  // flip back: 15 more
  EXPECT_EQ(net.total_actuations(), 30u);
  EXPECT_EQ(net.reconfiguration_events(), 2u);
}

TEST(SwitchNetwork, CellAccessBounds) {
  const SwitchNetwork net(4);
  EXPECT_NO_THROW(net.cell(2));
  EXPECT_THROW(net.cell(3), std::out_of_range);
}

}  // namespace
}  // namespace tegrec::switchfab
