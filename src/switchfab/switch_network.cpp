#include "switchfab/switch_network.hpp"

#include <stdexcept>

namespace tegrec::switchfab {

std::size_t switch_actuations(const teg::ArrayConfig& from,
                              const teg::ArrayConfig& to) {
  return 3 * from.boundary_distance(to);
}

SwitchNetwork::SwitchNetwork(std::size_t num_modules,
                             const teg::ArrayConfig& initial)
    : wired_(initial) {
  if (initial.num_modules() != num_modules) {
    throw std::invalid_argument("SwitchNetwork: config size mismatch");
  }
}

std::size_t SwitchNetwork::apply(const teg::ArrayConfig& config) {
  // Throws on a module-count mismatch before anything is rewired.
  const std::size_t actuations = switch_actuations(wired_, config);
  wired_ = config;  // vector copy-assignment reuses the wired capacity
  return actuations;
}

}  // namespace tegrec::switchfab
