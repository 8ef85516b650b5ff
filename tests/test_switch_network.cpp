// The switch fabric is its wired configuration: apply() rewires and returns
// the actuations the move took, three per adjacency whose connection type
// flips, checked here against the per-adjacency oracle.  apply() is also
// checked to allocate nothing once the wired buffer has grown, counted with
// a global operator new (the pattern of tests/test_step_allocations.cpp).
#include "switchfab/switch_network.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "boundary_oracle.hpp"
#include "util/rng.hpp"

// GCC flags new-from-malloc / delete-into-free pairs as mismatched even
// though malloc/free-backed replacement is the conforming way to replace
// the global forms; silence that one diagnostic for this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tegrec::switchfab {
namespace {

using teg::ArrayConfig;

static_assert(std::is_same_v<decltype(std::declval<const SwitchNetwork&>()
                                          .current_config()),
                             const ArrayConfig&>,
              "current_config() hands out the wired config, not a copy");

TEST(SwitchNetwork, ConstructionWithConfig) {
  const ArrayConfig c({0, 2, 4}, 6);
  const SwitchNetwork net(6, c);
  EXPECT_EQ(net.num_modules(), 6u);
  EXPECT_EQ(net.current_config(), c);
}

TEST(SwitchNetwork, OneModuleArrayHasNoSwitches) {
  // One module has no adjacency, so the fabric holds no switch and every
  // apply is free.
  const ArrayConfig only = ArrayConfig::all_parallel(1);
  SwitchNetwork net(1, only);
  EXPECT_EQ(net.num_modules(), 1u);
  EXPECT_EQ(net.apply(ArrayConfig::all_series(1)), 0u);
  EXPECT_EQ(net.current_config(), only);
}

TEST(SwitchNetwork, SizeMismatchThrows) {
  EXPECT_THROW(SwitchNetwork(5, ArrayConfig::all_parallel(6)),
               std::invalid_argument);
  SwitchNetwork net(5, ArrayConfig::all_parallel(5));
  EXPECT_THROW(net.apply(ArrayConfig::all_parallel(6)), std::invalid_argument);
  EXPECT_THROW(net.apply(ArrayConfig::all_parallel(4)), std::invalid_argument);
  // A rejected config wires nothing.
  EXPECT_EQ(net.current_config(), ArrayConfig::all_parallel(5));
}

TEST(SwitchNetwork, ApplyFlipsExactlyTheSymmetricDifference) {
  const ArrayConfig a({0, 4, 8}, 12);
  const ArrayConfig b({0, 3, 6, 9}, 12);
  SwitchNetwork net(12, a);
  // Symmetric difference of series boundaries {4,8} and {3,6,9}: all five
  // differ, i.e. adjacencies 2, 3, 5, 7, 8.
  std::vector<std::size_t> flipped;
  for (std::size_t i = 0; i + 1 < 12; ++i) {
    if (oracle::is_series_boundary(a, i) != oracle::is_series_boundary(b, i)) {
      flipped.push_back(i);
    }
  }
  EXPECT_EQ(flipped, (std::vector<std::size_t>{2, 3, 5, 7, 8}));
  EXPECT_EQ(net.apply(b), 3u * 5u);
  EXPECT_EQ(net.current_config(), b);
}

TEST(SwitchNetwork, ApplyCountsThreeSwitchesPerFlippedAdjacency) {
  SwitchNetwork net(10, ArrayConfig::all_parallel(10));
  const ArrayConfig c({0, 5}, 10);  // one series boundary at 4|5
  EXPECT_EQ(net.apply(c), 3u);
  EXPECT_EQ(net.current_config(), c);
}

TEST(SwitchNetwork, ReapplySameConfigIsFree) {
  SwitchNetwork net(10, ArrayConfig::all_parallel(10));
  const ArrayConfig c({0, 5}, 10);
  net.apply(c);
  EXPECT_EQ(net.apply(c), 0u);
}

TEST(SwitchNetwork, SeriesParallelRoundTripFlipsEveryAdjacency) {
  SwitchNetwork net(6, ArrayConfig::all_parallel(6));
  EXPECT_EQ(net.apply(ArrayConfig::all_series(6)), 15u);  // 5 adjacencies
  EXPECT_EQ(net.apply(ArrayConfig::all_parallel(6)), 15u);
}

TEST(SwitchNetwork, SwitchActuationsAreThreePerOracleFlip) {
  util::Rng rng(31);
  for (const std::size_t n : {1u, 2u, 20u}) {
    for (int trial = 0; trial < 100; ++trial) {
      const ArrayConfig from = oracle::random_config(rng, n, 0.3);
      const ArrayConfig to = oracle::random_config(rng, n, 0.6);
      EXPECT_EQ(switch_actuations(from, to),
                3 * oracle::boundary_distance(from, to));
    }
  }
  EXPECT_THROW(switch_actuations(ArrayConfig::all_parallel(3),
                                 ArrayConfig::all_parallel(4)),
               std::invalid_argument);
}

TEST(SwitchNetwork, ApplyAllocatesNothingOnceGrown) {
  const std::size_t n = 1000;
  util::Rng rng(8);
  std::vector<ArrayConfig> targets;
  for (int i = 0; i < 50; ++i) {
    targets.push_back(oracle::random_config(rng, n, rng.uniform(0.0, 1.0)));
  }
  SwitchNetwork net(n, ArrayConfig::all_series(n));  // the widest wiring
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (const ArrayConfig& target : targets) net.apply(target);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

}  // namespace
}  // namespace tegrec::switchfab
