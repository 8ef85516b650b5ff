// Summary statistics and forecast error metrics.
//
// The paper evaluates temperature predictors with MAPE (Eq. 3); the
// benches also use mean and min/max summaries and the streaming
// mean/stddev accumulator.
#pragma once

#include <cstddef>
#include <vector>

namespace tegrec::util {

double mean(const std::vector<double>& v);
double min_value(const std::vector<double>& v);
double max_value(const std::vector<double>& v);

/// Mean Absolute Percentage Error in percent, Eq. (3) of the paper:
///   M = (100/n) * sum |(A_t - F_t) / A_t| %
/// Entries with |A_t| below `eps` are skipped to avoid division blow-ups.
double mape_percent(const std::vector<double>& actual,
                    const std::vector<double>& forecast, double eps = 1e-9);

/// Streaming accumulator for mean / variance / extrema (Welford).
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< sample variance
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace tegrec::util
