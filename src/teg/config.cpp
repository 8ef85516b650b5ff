#include "teg/config.hpp"

#include <algorithm>
#include <stdexcept>

namespace tegrec::teg {

ArrayConfig::ArrayConfig(std::vector<std::size_t> group_starts,
                         std::size_t num_modules)
    : starts_(std::move(group_starts)), num_modules_(num_modules) {
  if (num_modules_ == 0) throw std::invalid_argument("ArrayConfig: N == 0");
  if (starts_.empty() || starts_.front() != 0) {
    throw std::invalid_argument("ArrayConfig: first group must start at 0");
  }
  for (std::size_t j = 1; j < starts_.size(); ++j) {
    if (starts_[j] <= starts_[j - 1]) {
      throw std::invalid_argument("ArrayConfig: starts not strictly increasing");
    }
  }
  if (starts_.back() >= num_modules_) {
    throw std::invalid_argument("ArrayConfig: start beyond module count");
  }
}

ArrayConfig ArrayConfig::uniform(std::size_t num_modules, std::size_t num_groups) {
  if (num_groups == 0 || num_groups > num_modules) {
    throw std::invalid_argument("ArrayConfig::uniform: bad group count");
  }
  std::vector<std::size_t> starts;
  starts.reserve(num_groups);
  for (std::size_t j = 0; j < num_groups; ++j) {
    starts.push_back(j * num_modules / num_groups);
  }
  // Integer division can duplicate starts when num_groups ~ num_modules;
  // dedupe to keep the invariant (the resulting config may have fewer groups).
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  return ArrayConfig(std::move(starts), num_modules);
}

ArrayConfig ArrayConfig::all_parallel(std::size_t num_modules) {
  return ArrayConfig({0}, num_modules);
}

ArrayConfig ArrayConfig::all_series(std::size_t num_modules) {
  std::vector<std::size_t> starts(num_modules);
  for (std::size_t i = 0; i < num_modules; ++i) starts[i] = i;
  return ArrayConfig(std::move(starts), num_modules);
}

std::size_t ArrayConfig::group_begin(std::size_t j) const {
  if (j >= starts_.size()) throw std::out_of_range("ArrayConfig::group_begin");
  return starts_[j];
}

std::size_t ArrayConfig::group_end(std::size_t j) const {
  if (j >= starts_.size()) throw std::out_of_range("ArrayConfig::group_end");
  return j + 1 < starts_.size() ? starts_[j + 1] : num_modules_;
}

bool ArrayConfig::is_series_boundary(std::size_t i) const {
  if (i + 1 >= num_modules_) {
    throw std::out_of_range("ArrayConfig::is_series_boundary");
  }
  return std::binary_search(starts_.begin(), starts_.end(), i + 1);
}

std::size_t ArrayConfig::boundary_distance(const ArrayConfig& other) const {
  if (num_modules_ != other.num_modules_) {
    throw std::invalid_argument("boundary_distance: module count mismatch");
  }
  std::size_t diff = 0;
  for (std::size_t i = 0; i + 1 < num_modules_; ++i) {
    if (is_series_boundary(i) != other.is_series_boundary(i)) ++diff;
  }
  return diff;
}

}  // namespace tegrec::teg
