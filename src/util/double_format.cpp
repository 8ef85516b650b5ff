#include "util/double_format.hpp"

#include <charconv>
#include <stdexcept>
#include <system_error>

namespace tegrec::util {

namespace {

constexpr int kMaxPrecision = 64;

}  // namespace

void append_double(std::string& out, double value, int precision) {
  if (precision < 0 || precision > kMaxPrecision) {
    throw std::invalid_argument("append_double: precision " +
                                std::to_string(precision) +
                                " outside [0, 64]");
  }
  // Longest %.64g rendering: sign, 64 digits, point, "e-308" — or the
  // fixed form "-0.0000" plus 64 digits.
  char buffer[kMaxPrecision + 16];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general, precision);
  if (result.ec != std::errc()) {
    throw std::logic_error("append_double: buffer too small");
  }
  out.append(buffer, result.ptr);
}

std::string format_double(double value, int precision) {
  std::string out;
  append_double(out, value, precision);
  return out;
}

}  // namespace tegrec::util
