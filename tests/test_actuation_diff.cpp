// Randomized property suite for the incremental switch fabric: arbitrary
// configuration sequences must keep the O(changed)-cost apply path
// indistinguishable from a from-scratch fabric rebuild, flipping exactly
// the cells an O(N) before/after comparison predicts, with actuation
// counts exactly 3x the flipped adjacencies.
#include "switchfab/switch_network.hpp"

#include <cstddef>
#include <gtest/gtest.h>
#include <vector>

#include "teg/config.hpp"
#include "util/rng.hpp"

namespace tegrec::switchfab {
namespace {

using teg::ArrayConfig;

// The series state of every cell, read one by one: the O(N) reference the
// O(groups) apply() is checked against.
std::vector<bool> series_cells(const SwitchNetwork& net) {
  std::vector<bool> out(net.num_cells());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = net.cell(i).series_closed;
  }
  return out;
}

ArrayConfig random_config(util::Rng& rng, std::size_t num_modules,
                          double boundary_density) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 1; i < num_modules; ++i) {
    if (rng.bernoulli(boundary_density)) starts.push_back(i);
  }
  return ArrayConfig(starts, num_modules);
}

TEST(ActuationDiff, RandomSequencesMatchFromScratchConstruction) {
  // The one property that implies all the others: after any apply
  // sequence, the incrementally maintained fabric is cell-for-cell
  // identical to a fabric constructed directly from the final config.
  util::Rng rng(2024);
  for (const std::size_t n : {2u, 3u, 17u, 64u, 257u}) {
    SwitchNetwork net(n);
    for (int step = 0; step < 50; ++step) {
      // Sweep the density so the walk visits all-parallel-ish,
      // all-series-ish, and balanced configurations.
      const double density = rng.uniform(0.02, 0.98);
      const ArrayConfig target = random_config(rng, n, density);
      net.apply(target);

      const SwitchNetwork fresh(n, target);
      ASSERT_EQ(net.num_cells(), fresh.num_cells());
      for (std::size_t i = 0; i < net.num_cells(); ++i) {
        const SwitchCell& a = net.cell(i);
        const SwitchCell& b = fresh.cell(i);
        ASSERT_EQ(a.series_closed, b.series_closed) << "n=" << n << " cell " << i;
        ASSERT_EQ(a.parallel_top_closed, b.parallel_top_closed);
        ASSERT_EQ(a.parallel_bottom_closed, b.parallel_bottom_closed);
      }
    }
  }
}

TEST(ActuationDiff, ActuationsAreThreePerFlippedAdjacency) {
  util::Rng rng(7);
  const std::size_t n = 120;
  SwitchNetwork net(n);
  ArrayConfig previous = ArrayConfig::all_parallel(n);
  std::size_t expected_total = 0;
  for (int step = 0; step < 200; ++step) {
    const ArrayConfig target = random_config(rng, n, rng.uniform(0.05, 0.9));
    const std::size_t flipped = previous.boundary_distance(target);

    const std::vector<bool> before = series_cells(net);
    EXPECT_EQ(net.apply(target), 3 * flipped);
    // apply() flipped exactly the cells whose connection type differs
    // between the two configurations, and no other.
    const std::vector<bool> after = series_cells(net);
    std::size_t changed = 0;
    for (std::size_t cell = 0; cell + 1 < n; ++cell) {
      EXPECT_EQ(before[cell] != after[cell],
                previous.is_series_boundary(cell) !=
                    target.is_series_boundary(cell))
          << "cell " << cell;
      if (before[cell] != after[cell]) ++changed;
    }
    EXPECT_EQ(changed, flipped);
    expected_total += 3 * flipped;
    EXPECT_EQ(net.total_actuations(), expected_total);
    previous = target;
  }
}

TEST(ActuationDiff, StateStaysValidAndRoundTrips) {
  util::Rng rng(99);
  const std::size_t n = 40;
  SwitchNetwork net(n);
  std::size_t events = 0;
  for (int step = 0; step < 300; ++step) {
    const ArrayConfig target = random_config(rng, n, rng.uniform(0.0, 1.0));
    const bool changes = net.current_config().boundary_distance(target) != 0;
    net.apply(target);
    if (changes) ++events;
    ASSERT_TRUE(net.is_valid());
    ASSERT_EQ(net.current_config(), target);
    ASSERT_EQ(net.reconfiguration_events(), events);
  }
}

TEST(ActuationDiff, RepeatedApplyIsIdempotentAndFree) {
  util::Rng rng(5);
  const std::size_t n = 30;
  SwitchNetwork net(n);
  for (int step = 0; step < 50; ++step) {
    const ArrayConfig target = random_config(rng, n, 0.4);
    net.apply(target);
    const std::size_t before = net.total_actuations();
    EXPECT_EQ(net.apply(target), 0u);  // second apply flips nothing
    EXPECT_EQ(net.total_actuations(), before);
    EXPECT_EQ(net.current_config(), target);
  }
}

}  // namespace
}  // namespace tegrec::switchfab
