#include "switchfab/switch_network.hpp"

#include <stdexcept>

namespace tegrec::switchfab {

namespace {

// A configuration's series boundaries are exactly its non-zero group
// starts (cell s-1 sits between modules s-1 and s).  The cells to flip are
// the symmetric difference of the wired and target boundary lists; both
// are strictly increasing, so one merge pass visits them in ascending
// order in O(wired groups + target groups) — independent of the module
// count.
template <typename Fn>
void for_each_flip(const std::vector<std::size_t>& wired,
                   const std::vector<std::size_t>& next, Fn flip) {
  std::size_t a = 1;  // skip the mandatory leading 0 of both lists
  std::size_t b = 1;
  while (a < wired.size() || b < next.size()) {
    if (b == next.size() || (a < wired.size() && wired[a] < next[b])) {
      flip(wired[a++] - 1);  // boundary opens
    } else if (a == wired.size() || next[b] < wired[a]) {
      flip(next[b++] - 1);   // boundary closes
    } else {
      ++a;  // boundary present on both sides: cell untouched
      ++b;
    }
  }
}

}  // namespace

SwitchNetwork::SwitchNetwork(std::size_t num_modules)
    : SwitchNetwork(num_modules, teg::ArrayConfig::all_parallel(num_modules)) {}

SwitchNetwork::SwitchNetwork(std::size_t num_modules,
                             const teg::ArrayConfig& initial)
    : num_modules_(num_modules) {
  if (num_modules_ < 2) {
    throw std::invalid_argument("SwitchNetwork: need at least 2 modules");
  }
  if (initial.num_modules() != num_modules_) {
    throw std::invalid_argument("SwitchNetwork: config size mismatch");
  }
  cells_.resize(num_modules_ - 1);
  for (std::size_t i = 0; i + 1 < num_modules_; ++i) {
    const bool series = initial.is_series_boundary(i);
    cells_[i].series_closed = series;
    cells_[i].parallel_top_closed = !series;
    cells_[i].parallel_bottom_closed = !series;
  }
  // Room for every possible boundary, so apply() never reallocates.
  starts_.reserve(num_modules_);
  starts_ = initial.group_starts();
}

const SwitchCell& SwitchNetwork::cell(std::size_t i) const {
  if (i >= cells_.size()) throw std::out_of_range("SwitchNetwork::cell");
  return cells_[i];
}

void SwitchNetwork::set_cell(std::size_t i, bool series) {
  SwitchCell& c = cells_[i];
  if (c.series_closed == series) return;
  // Flipping the connection type actuates all three switches of the cell.
  c.series_closed = series;
  c.parallel_top_closed = !series;
  c.parallel_bottom_closed = !series;
  total_actuations_ += 3;
}

std::size_t SwitchNetwork::apply(const teg::ArrayConfig& config) {
  if (config.num_modules() != num_modules_) {
    throw std::invalid_argument("SwitchNetwork::apply: config size mismatch");
  }
  // Each flip is applied as the merge finds it: no plan vector, so a
  // steady stream of actuations allocates nothing.
  std::size_t flipped = 0;
  for_each_flip(starts_, config.group_starts(), [&](std::size_t cell) {
    set_cell(cell, !cells_[cell].series_closed);
    ++flipped;
  });
  starts_ = config.group_starts();
  if (flipped != 0) ++events_;
  return 3 * flipped;
}

teg::ArrayConfig SwitchNetwork::current_config() const {
  return teg::ArrayConfig(starts_, num_modules_);
}

bool SwitchNetwork::is_valid() const {
  for (const SwitchCell& c : cells_) {
    if (!c.is_valid()) return false;
  }
  return true;
}

}  // namespace tegrec::switchfab
