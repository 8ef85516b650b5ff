#include "util/hash.hpp"

#include <bit>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace tegrec::util {

namespace {
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t size, std::uint64_t state) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t fnv1a64(std::string_view text, std::uint64_t state) {
  return fnv1a64(text.data(), text.size(), state);
}

void fnv1a64_file(const std::string& path, std::uint64_t& state_a,
                  std::uint64_t& state_b) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("fnv1a64_file: cannot open " + path);
  char buffer[1 << 16];
  while (f) {
    f.read(buffer, sizeof(buffer));
    const auto count = static_cast<std::size_t>(f.gcount());
    state_a = fnv1a64(buffer, count, state_a);
    state_b = fnv1a64(buffer, count, state_b);
  }
  if (f.bad()) throw std::runtime_error("fnv1a64_file: read failed for " + path);
}

std::uint64_t fnv1a64_double(double value, std::uint64_t state) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  return fnv1a64(&bits, sizeof(bits), state);
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace tegrec::util
