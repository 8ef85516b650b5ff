#include "teg/device.hpp"

#include <stdexcept>

namespace tegrec::teg {

DeviceParams tgm_199_1_4_0_8() {
  return DeviceParams{};  // defaults are the TGM-199-1.4-0.8 values
}

void validate(const DeviceParams& params) {
  if (params.num_couples <= 0) {
    throw std::invalid_argument("DeviceParams: num_couples <= 0");
  }
  if (params.seebeck_v_k_couple <= 0.0) {
    throw std::invalid_argument("DeviceParams: seebeck <= 0");
  }
  if (params.internal_resistance_ohm <= 0.0) {
    throw std::invalid_argument("DeviceParams: internal resistance <= 0");
  }
  if (params.max_delta_t_k <= 0.0) {
    throw std::invalid_argument("DeviceParams: max dT <= 0");
  }
}

}  // namespace tegrec::teg
