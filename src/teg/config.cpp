#include "teg/config.hpp"

#include <stdexcept>
#include <utility>

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
  // For num_groups <= num_modules the starts j*N/n strictly increase:
  // consecutive ones differ by at least floor(N/n) >= 1, so the config
  // always has exactly num_groups groups.
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

std::size_t ArrayConfig::boundary_distance(const ArrayConfig& other) const {
  if (num_modules_ != other.num_modules_) {
    throw std::invalid_argument("boundary_distance: module count mismatch");
  }
  // Both start lists are strictly increasing, so one merge counts the
  // starts they share (the leading 0 included); every other start is a
  // series boundary only one side has.
  const std::vector<std::size_t>& a = starts_;
  const std::vector<std::size_t>& b = other.starts_;
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t shared = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++shared;
      ++i;
      ++j;
    }
  }
  return a.size() + b.size() - 2 * shared;
}

}  // namespace tegrec::teg
