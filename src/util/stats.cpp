#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tegrec::util {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

double min_value(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("min_value: empty");
  return *std::min_element(v.begin(), v.end());
}

double max_value(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("max_value: empty");
  return *std::max_element(v.begin(), v.end());
}

double mape_percent(const std::vector<double>& actual,
                    const std::vector<double>& forecast, double eps) {
  if (actual.size() != forecast.size()) {
    throw std::invalid_argument("mape_percent: size mismatch");
  }
  double acc = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (std::abs(actual[i]) < eps) continue;
    acc += std::abs((actual[i] - forecast[i]) / actual[i]);
    ++used;
  }
  if (used == 0) return 0.0;
  return 100.0 * acc / static_cast<double>(used);
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace tegrec::util
