#include "predict/history.hpp"

#include <gtest/gtest.h>

namespace tegrec::predict {
namespace {

TEST(History, PushAndAccess) {
  TemperatureHistory h(3, 5);
  EXPECT_TRUE(h.empty());
  h.push({1.0, 2.0, 3.0});
  h.push({4.0, 5.0, 6.0});
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.row(0), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(h.latest(), (std::vector<double>{4.0, 5.0, 6.0}));
}

TEST(History, EvictsOldestAtCapacity) {
  TemperatureHistory h(1, 3);
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.push({v});
  EXPECT_EQ(h.size(), 3u);
  EXPECT_DOUBLE_EQ(h.row(0)[0], 2.0);
  EXPECT_DOUBLE_EQ(h.latest()[0], 4.0);
}

TEST(History, LagWindowMostRecentFirst) {
  TemperatureHistory h(2, 10);
  h.push({1.0, 10.0});
  h.push({2.0, 20.0});
  h.push({3.0, 30.0});
  EXPECT_EQ(h.lag_window(0, 3), (std::vector<double>{3.0, 2.0, 1.0}));
  EXPECT_EQ(h.lag_window(1, 2), (std::vector<double>{30.0, 20.0}));
}

TEST(History, LagWindowErrors) {
  TemperatureHistory h(2, 10);
  h.push({1.0, 2.0});
  EXPECT_THROW(h.lag_window(2, 1), std::out_of_range);  // bad module
  EXPECT_THROW(h.lag_window(0, 2), std::out_of_range);  // too many lags
  EXPECT_THROW(h.lag_window(0, 0), std::out_of_range);  // zero lags
}

TEST(History, PushWrongWidthThrows) {
  TemperatureHistory h(3, 5);
  EXPECT_THROW(h.push({1.0}), std::invalid_argument);
}

TEST(History, ConstructionValidation) {
  EXPECT_THROW(TemperatureHistory(0, 5), std::invalid_argument);
  EXPECT_THROW(TemperatureHistory(3, 1), std::invalid_argument);
}

TEST(History, FreshHistoryIsEmpty) {
  const TemperatureHistory h(1, 4);
  EXPECT_TRUE(h.empty());
  EXPECT_THROW(h.latest(), std::out_of_range);
  EXPECT_THROW(h.row(0), std::out_of_range);
}

}  // namespace
}  // namespace tegrec::predict
