#include "teg/array_evaluator.hpp"

#include <stdexcept>

namespace tegrec::teg {

ArrayEvaluator::ArrayEvaluator(std::span<const LinearSource> ports) {
  assign(ports);
}

void ArrayEvaluator::assign(std::span<const LinearSource> ports) {
  const std::size_t n = ports.size();
  conductance_prefix_.resize(n + 1);
  norton_prefix_.resize(n + 1);
  conductance_prefix_[0] = 0.0;
  norton_prefix_[0] = 0.0;
  ideal_power_w_ = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const LinearSource& m = ports[i];
    conductance_prefix_[i + 1] = conductance_prefix_[i] + 1.0 / m.r_ohm;
    norton_prefix_[i + 1] = norton_prefix_[i] + m.voc_v / m.r_ohm;
    ideal_power_w_ += m.mpp_power_w();
  }
}

bool ArrayEvaluator::simd_available() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

LinearSource ArrayEvaluator::string_equivalent(const ArrayConfig& config) const {
  if (config.num_modules() != size()) {
    throw std::invalid_argument(
        "ArrayEvaluator::string_equivalent: config size mismatch");
  }
  return string_equivalent(std::span<const std::size_t>(config.group_starts()));
}

LinearSource ArrayEvaluator::string_equivalent(
    std::span<const std::size_t> group_starts) const {
  if (group_starts.empty() || group_starts.front() != 0) {
    throw std::invalid_argument(
        "ArrayEvaluator::string_equivalent: group starts must begin at 0");
  }
  const std::size_t n = size();
  const std::size_t m = group_starts.size();
  const double* cp = conductance_prefix_.data();
  const double* np = norton_prefix_.data();
  // Group j is modules [b, e); its port is R = 1/(G_e - G_b) and
  // Voc = (I_e - I_b) * R, accumulated in group order.
  LinearSource out;
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t b = group_starts[j];
    const std::size_t e = j + 1 < m ? group_starts[j + 1] : n;
    if (e <= b || e > n) {
      throw std::out_of_range(
          "ArrayEvaluator::string_equivalent: bad group range");
    }
    const double r = 1.0 / (cp[e] - cp[b]);
    out.voc_v += (np[e] - np[b]) * r;
    out.r_ohm += r;
  }
  return out;
}

}  // namespace tegrec::teg
