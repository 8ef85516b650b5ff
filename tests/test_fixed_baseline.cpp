#include "core/fixed_baseline.hpp"

#include <gtest/gtest.h>

namespace tegrec::core {
namespace {

TEST(FixedBaseline, SquareGridFor100Modules) {
  auto rec = FixedBaselineReconfigurer::square_grid(100);
  const UpdateResult r = rec.update(0.0, std::vector<double>(100, 20.0), 25.0);
  EXPECT_EQ(r.config.num_groups(), 10u);
  for (std::size_t j = 0; j < 10; ++j) {
    EXPECT_EQ(r.config.group_end(j) - r.config.group_begin(j), 10u);
  }
}

TEST(FixedBaseline, FirstCallInstallsThenNothing) {
  auto rec = FixedBaselineReconfigurer::square_grid(16);
  const std::vector<double> dts(16, 15.0);
  const UpdateResult r0 = rec.update(0.0, dts, 25.0);
  EXPECT_TRUE(r0.switched);
  EXPECT_TRUE(r0.actuate);
  EXPECT_FALSE(r0.invoked);  // no algorithm runs for a hardwired array
  for (double t = 0.5; t < 5.0; t += 0.5) {
    const UpdateResult r = rec.update(t, dts, 25.0);
    EXPECT_FALSE(r.switched);
    EXPECT_FALSE(r.actuate);
    EXPECT_FALSE(r.invoked);
    EXPECT_EQ(r.config, r0.config);
  }
}

TEST(FixedBaseline, IgnoresTemperatures) {
  auto rec = FixedBaselineReconfigurer::square_grid(9);
  const UpdateResult a = rec.update(0.0, std::vector<double>(9, 40.0), 25.0);
  const UpdateResult b = rec.update(1.0, std::vector<double>(9, 5.0), 25.0);
  EXPECT_EQ(a.config, b.config);
}

TEST(FixedBaseline, CustomConfig) {
  const teg::ArrayConfig custom({0, 2, 5}, 8);
  FixedBaselineReconfigurer rec(custom);
  EXPECT_EQ(rec.update(0.0, std::vector<double>(8, 10.0), 25.0).config, custom);
  EXPECT_EQ(rec.name(), "Baseline");
}

TEST(FixedBaseline, ResetReinstalls) {
  auto rec = FixedBaselineReconfigurer::square_grid(4);
  const std::vector<double> dts(4, 10.0);
  rec.update(0.0, dts, 25.0);
  rec.reset();
  EXPECT_TRUE(rec.update(0.0, dts, 25.0).actuate);
}

TEST(FixedBaseline, NonSquareCounts) {
  // 20 modules -> side 4 or 5; must produce a valid partition either way.
  auto rec = FixedBaselineReconfigurer::square_grid(20);
  const UpdateResult r = rec.update(0.0, std::vector<double>(20, 10.0), 25.0);
  std::size_t total = 0;
  for (std::size_t j = 0; j < r.config.num_groups(); ++j) {
    total += r.config.group_end(j) - r.config.group_begin(j);
  }
  EXPECT_EQ(total, 20u);
}

}  // namespace
}  // namespace tegrec::core
