// Randomized property suite for the O(groups) actuation count: the merge
// in teg::ArrayConfig::boundary_distance must agree with the per-adjacency
// oracle (tests/boundary_oracle.hpp) on every configuration pair, and any
// sequence of SwitchNetwork::apply calls must return 3x the oracle's count
// and leave the fabric wired exactly as a from-scratch fabric would be.
#include "switchfab/switch_network.hpp"

#include <cstddef>
#include <gtest/gtest.h>
#include <vector>

#include "boundary_oracle.hpp"
#include "teg/config.hpp"
#include "util/rng.hpp"

namespace tegrec::switchfab {
namespace {

using teg::ArrayConfig;

TEST(ActuationDiff, MergeMatchesPerAdjacencyOracle) {
  util::Rng rng(2024);
  for (const std::size_t n : {1u, 2u, 3u, 64u, 1000u}) {
    for (int pair = 0; pair < 100; ++pair) {
      // Sweep the densities so the pairs cover all-parallel-ish,
      // all-series-ish and balanced configurations on either side.
      const ArrayConfig a = oracle::random_config(rng, n, rng.uniform(0, 1));
      const ArrayConfig b = oracle::random_config(rng, n, rng.uniform(0, 1));
      const std::size_t expected = oracle::boundary_distance(a, b);
      ASSERT_EQ(a.boundary_distance(b), expected) << "n=" << n;
      ASSERT_EQ(b.boundary_distance(a), expected) << "n=" << n;
      ASSERT_EQ(a.boundary_distance(a), 0u);
    }
    EXPECT_EQ(ArrayConfig::all_parallel(n).boundary_distance(
                  ArrayConfig::all_series(n)),
              n - 1);
  }
}

TEST(ActuationDiff, EmptyPairIsZeroApart) {
  EXPECT_EQ(ArrayConfig().boundary_distance(ArrayConfig()), 0u);
}

TEST(ActuationDiff, ModuleCountMismatchThrows) {
  EXPECT_THROW(ArrayConfig::all_series(5).boundary_distance(
                   ArrayConfig::all_series(6)),
               std::invalid_argument);
  EXPECT_THROW(ArrayConfig().boundary_distance(ArrayConfig::all_parallel(1)),
               std::invalid_argument);
}

TEST(ActuationDiff, RandomSequencesMatchFromScratchConstruction) {
  // After any apply sequence, the incrementally rewired fabric equals a
  // fabric constructed directly from the final config, and every apply
  // returned three actuations per adjacency the oracle sees flip.
  util::Rng rng(7);
  for (const std::size_t n : {1u, 2u, 3u, 17u, 64u, 257u}) {
    ArrayConfig previous = ArrayConfig::all_parallel(n);
    SwitchNetwork net(n, previous);
    for (int step = 0; step < 50; ++step) {
      const ArrayConfig target =
          oracle::random_config(rng, n, rng.uniform(0.02, 0.98));
      const std::size_t expected =
          3 * oracle::boundary_distance(previous, target);
      ASSERT_EQ(net.apply(target), expected) << "n=" << n << " step " << step;
      ASSERT_EQ(net.current_config(), target);
      ASSERT_EQ(net.current_config(),
                SwitchNetwork(n, target).current_config());
      previous = target;
    }
  }
}

TEST(ActuationDiff, RepeatedApplyIsIdempotentAndFree) {
  util::Rng rng(5);
  const std::size_t n = 30;
  SwitchNetwork net(n, ArrayConfig::all_parallel(n));
  for (int step = 0; step < 50; ++step) {
    const ArrayConfig target = oracle::random_config(rng, n, 0.4);
    net.apply(target);
    EXPECT_EQ(net.apply(target), 0u);  // second apply flips nothing
    EXPECT_EQ(net.current_config(), target);
  }
}

}  // namespace
}  // namespace tegrec::switchfab
