#include "predict/history.hpp"

#include <stdexcept>

namespace tegrec::predict {

TemperatureHistory::TemperatureHistory(std::size_t num_modules,
                                       std::size_t capacity)
    : num_modules_(num_modules), capacity_(capacity) {
  if (num_modules == 0) throw std::invalid_argument("TemperatureHistory: N == 0");
  if (capacity < 2) throw std::invalid_argument("TemperatureHistory: capacity < 2");
}

void TemperatureHistory::push(const std::vector<double>& temps) {
  if (temps.size() != num_modules_) {
    throw std::invalid_argument("TemperatureHistory::push: wrong width");
  }
  rows_.push_back(temps);
  if (rows_.size() > capacity_) rows_.pop_front();
}

const std::vector<double>& TemperatureHistory::row(std::size_t r) const {
  if (r >= rows_.size()) throw std::out_of_range("TemperatureHistory::row");
  return rows_[r];
}

const std::vector<double>& TemperatureHistory::latest() const {
  if (rows_.empty()) throw std::out_of_range("TemperatureHistory::latest: empty");
  return rows_.back();
}

std::vector<double> TemperatureHistory::lag_window(std::size_t module,
                                                   std::size_t lags) const {
  if (module >= num_modules_) {
    throw std::out_of_range("TemperatureHistory::lag_window: module");
  }
  if (lags == 0 || lags > rows_.size()) {
    throw std::out_of_range("TemperatureHistory::lag_window: lags");
  }
  std::vector<double> out(lags);
  for (std::size_t k = 0; k < lags; ++k) {
    out[k] = rows_[rows_.size() - 1 - k][module];
  }
  return out;
}

}  // namespace tegrec::predict
