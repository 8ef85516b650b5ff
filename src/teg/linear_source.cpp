#include "teg/linear_source.hpp"

#include <stdexcept>

namespace tegrec::teg {

LinearSource in_parallel(std::span<const LinearSource> members) {
  if (members.empty()) throw std::invalid_argument("in_parallel: no members");
  double g_sum = 0.0;   // sum of conductances
  double norton = 0.0;  // Norton current sum
  for (const LinearSource& m : members) {
    g_sum += 1.0 / m.r_ohm;
    norton += m.voc_v / m.r_ohm;
  }
  LinearSource out;
  out.r_ohm = 1.0 / g_sum;
  out.voc_v = norton * out.r_ohm;
  return out;
}

LinearSource in_series(std::span<const LinearSource> members) {
  if (members.empty()) throw std::invalid_argument("in_series: no members");
  LinearSource out;
  for (const LinearSource& m : members) {
    out.voc_v += m.voc_v;
    out.r_ohm += m.r_ohm;
  }
  return out;
}

}  // namespace tegrec::teg
