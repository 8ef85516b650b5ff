#include "util/parse.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <system_error>

#include "util/float_cmp.hpp"

namespace tegrec::util {

namespace {

[[noreturn]] void fail(const char* what, std::string_view text) {
  std::string message = "expected ";
  message += what;
  message += ", got '";
  message += text;
  message += '\'';
  throw std::invalid_argument(message);
}

/// The strtod reading of a token from_chars did not settle: accepts what
/// strtod accepts in full without ERANGE ("+1.5", "0x1p3") and throws
/// otherwise.  strtod needs a NUL-terminated copy.
double parse_double_strtod(std::string_view text) {
  const std::string token(trim(text));
  if (token.empty()) fail("a number", text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || errno == ERANGE) {
    fail("a number", text);
  }
  // strtod also accepts "nan"/"inf"; a non-finite flag or spec value would
  // sail through downstream range checks (NaN compares false against
  // everything), so it counts as garbage here.
  if (!std::isfinite(value)) fail("a finite number", text);
  return value;
}

}  // namespace

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

const char* read_settled_double(const char* first, const char* last,
                                double& value) {
  const auto [end, ec] =
      std::from_chars(first, last, value, std::chars_format::general);
  // Only a normal or zero value is settled here: strtod flags subnormals
  // with ERANGE (rejected), and every other input — a sign or hex prefix
  // from_chars refuses, junk, overflow, "nan"/"inf" — takes strtod's path
  // so it is accepted or rejected exactly as before, with the same message.
  if (ec != std::errc() || !(std::isnormal(value) || is_exactly_zero(value))) {
    return nullptr;
  }
  return end;
}

double parse_double(std::string_view text) {
  const std::string_view token = trim(text);
  const char* const last = token.data() + token.size();
  double value = 0.0;
  const char* const end = read_settled_double(token.data(), last, value);
  if (end != nullptr && end == last) return value;
  return parse_double_strtod(text);
}

std::uint64_t parse_u64(std::string_view text) {
  const std::string token(trim(text));
  // strtoull accepts a leading '-' (wrapping the value); reject it here.
  if (token.empty() || token[0] == '-' || token[0] == '+') {
    fail("a non-negative integer", text);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || errno == ERANGE) {
    fail("a non-negative integer", text);
  }
  return value;
}

std::int64_t parse_i64(std::string_view text) {
  const std::string token(trim(text));
  if (token.empty()) fail("an integer", text);
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || errno == ERANGE) {
    fail("an integer", text);
  }
  return value;
}

bool parse_bool(std::string_view text) {
  const std::string_view token = trim(text);
  if (token == "1" || token == "true") return true;
  if (token == "0" || token == "false") return false;
  fail("a boolean (0/1/true/false)", text);
}

}  // namespace tegrec::util
