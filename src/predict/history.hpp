// Sliding window of past temperature distributions.
//
// Section IV: the predictors forecast each module's temperature directly
// from formerly derived temperature distributions.  TemperatureHistory is
// the bounded buffer of those distributions — rows are time steps (oldest
// first), columns are modules — shared by all predictor implementations.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

namespace tegrec::predict {

class TemperatureHistory {
 public:
  /// `capacity` — maximum retained steps; older rows are evicted.
  TemperatureHistory(std::size_t num_modules, std::size_t capacity);

  std::size_t num_modules() const { return num_modules_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Appends the newest distribution (evicting the oldest if full).
  void push(const std::vector<double>& temps);

  /// Row r, oldest first (row size() - 1 is the most recent).
  const std::vector<double>& row(std::size_t r) const;
  const std::vector<double>& latest() const;

  /// The most recent `lags` values of one module, most recent first:
  /// { T_t, T_{t-1}, ..., T_{t-lags+1} }.  Throws if fewer rows exist.
  std::vector<double> lag_window(std::size_t module, std::size_t lags) const;

 private:
  std::size_t num_modules_;
  std::size_t capacity_;
  std::deque<std::vector<double>> rows_;
};

}  // namespace tegrec::predict
