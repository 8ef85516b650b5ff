// util::parse_double is the one number reader: CLI flags, spec files,
// checkpoints, controller state blobs and telemetry cells all read through
// it.  Its from_chars fast path must not change what the library accepts,
// rejects or reads, so these tests hold it to the strtod reader it replaced
// (kept below as the oracle) over a few million rendered doubles and the
// edge tokens where from_chars and strtod disagree, and pin the integer,
// boolean and field-splitting helpers that share its header.
#include "util/parse.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/double_format.hpp"
#include "util/rng.hpp"

namespace tegrec::util {
namespace {

// ----------------------------------------------------------------- oracle

std::string oracle_trimmed(const std::string& text) {
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

[[noreturn]] void oracle_fail(const char* what, const std::string& text) {
  throw std::invalid_argument(std::string("expected ") + what + ", got '" +
                              text + "'");
}

/// The strtod-only reader parse_double replaced, verbatim.
double oracle_parse_double(const std::string& text) {
  const std::string token = oracle_trimmed(text);
  if (token.empty()) oracle_fail("a number", text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || errno == ERANGE) {
    oracle_fail("a number", text);
  }
  if (!std::isfinite(value)) oracle_fail("a finite number", text);
  return value;
}

/// One reader's verdict on one token: the value's bits, or the exception.
struct Outcome {
  bool accepted = false;
  std::uint64_t bits = 0;
  bool invalid_argument = false;  ///< the exception's type, when rejected
  std::string what;

  bool operator==(const Outcome&) const = default;
};

template <typename Reader>
Outcome outcome_of(Reader&& read, const std::string& text) {
  Outcome out;
  try {
    out.bits = std::bit_cast<std::uint64_t>(read(text));
    out.accepted = true;
  } catch (const std::invalid_argument& e) {
    out.invalid_argument = true;
    out.what = e.what();
  } catch (const std::exception& e) {
    out.what = e.what();
  }
  return out;
}

/// Counts disagreements with the oracle, reporting the first few, so one
/// wrong reader does not flood the log with a million failures.
class Differ {
 public:
  void check(const std::string& text) {
    const Outcome want = outcome_of(oracle_parse_double, text);
    const Outcome got =
        outcome_of([](const std::string& t) { return parse_double(t); }, text);
    ++checked_;
    if (want.accepted) ++accepted_;
    if (!(got == want) && ++mismatches_ <= 10) {
      ADD_FAILURE() << "'" << text << "': got "
                    << (got.accepted ? "bits 0x" : "error '") << std::hex
                    << got.bits << std::dec << got.what << "', strtod "
                    << (want.accepted ? "bits 0x" : "error '") << std::hex
                    << want.bits << std::dec << want.what << "'";
    }
  }
  int mismatches() const { return mismatches_; }
  int checked() const { return checked_; }
  int accepted() const { return accepted_; }

 private:
  int mismatches_ = 0;
  int checked_ = 0;
  int accepted_ = 0;
};

// ------------------------------------------------------------ parse_double

TEST(Parse, DoubleMatchesStrtodOnRandomBitPatterns) {
  Rng rng(0x9a25e5u);
  Differ differ;
  int finite = 0;
  while (finite < 1'000'000) {
    const double v = std::bit_cast<double>(rng.engine()());
    if (!std::isfinite(v)) continue;
    ++finite;
    differ.check(format_double(v, kExactDoublePrecision));
    differ.check(format_double(v, 12));
  }
  EXPECT_EQ(differ.mismatches(), 0);
  // Subnormals and overflowing roundings are rejected, the rest accepted.
  EXPECT_GT(differ.accepted(), differ.checked() * 9 / 10);
}

TEST(Parse, DoubleMatchesStrtodOnLongMantissas) {
  // 25 significant digits: more than any double needs, so the reader must
  // round a decimal that is not exactly representable, across the whole
  // exponent range and past both ends of it.
  Rng rng(25);
  Differ differ;
  for (int i = 0; i < 300'000; ++i) {
    std::string text;
    if (rng.bernoulli(0.5)) text += '-';
    text += static_cast<char>('1' + rng.uniform_int(0, 8));
    text += '.';
    for (int d = 0; d < 24; ++d) {
      text += static_cast<char>('0' + rng.uniform_int(0, 9));
    }
    text += 'e';
    text += std::to_string(rng.uniform_int(-340, 320));
    differ.check(text);
  }
  EXPECT_EQ(differ.mismatches(), 0);
}

TEST(Parse, DoubleMatchesStrtodOnEdgeTokens) {
  const std::vector<std::string> tokens = {
      "+1.5", " 1 ", "\t2\n", "0x1p3", "-0", ".5", "1.", "1e", "1e+", "1_0",
      "", " ", "5e-324", "2.2250738585072011e-308", "1e-400", "1e400", "nan",
      "inf", "infinity",
      // Around the normal/subnormal and overflow boundaries, and the
      // zero spellings the fast path settles itself.
      "2.2250738585072014e-308", "-2.2250738585072014e-308",
      "1.7976931348623157e308", "1.7976931348623159e308", "-0.0", "0e-999",
      "0.000", "-nan", "+inf", "1e-310", "1,5", "1 2", "--1", "1e5.5",
      "0x", "+", "-", ".", "e5", "1.5\r", "\v7\f"};
  Differ differ;
  for (const std::string& token : tokens) differ.check(token);
  EXPECT_EQ(differ.mismatches(), 0);
}

TEST(Parse, DoubleReadsWhatStrtodReads) {
  EXPECT_EQ(parse_double("+1.5"), 1.5);
  EXPECT_EQ(parse_double("0x1p3"), 8.0);
  EXPECT_EQ(parse_double(" \t-2.25\n"), -2.25);
  EXPECT_TRUE(std::signbit(parse_double("-0")));
  // Rejections name the untrimmed input, as before.
  const auto message_of = [](std::string_view text) -> std::string {
    try {
      parse_double(text);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(message_of("5e-324"), "expected a number, got '5e-324'");
  EXPECT_EQ(message_of(" 1x"), "expected a number, got ' 1x'");
  EXPECT_EQ(message_of("inf"), "expected a finite number, got 'inf'");
  EXPECT_EQ(message_of(""), "expected a number, got ''");
}

TEST(Parse, DoubleReadsOnlyTheView) {
  // A view into a longer buffer (a telemetry cell) ends where the view
  // ends, on both the from_chars and the strtod path.
  const std::string line = "1.25,+3.5,9";
  EXPECT_EQ(parse_double(std::string_view(line).substr(0, 4)), 1.25);
  EXPECT_EQ(parse_double(std::string_view(line).substr(5, 4)), 3.5);
  EXPECT_THROW(parse_double(std::string_view(line).substr(0, 5)),
               std::invalid_argument);
}

// ------------------------------------------------------- integers, bools

TEST(Parse, UnsignedIntegers) {
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64(" 7\t"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_u64(std::string_view("123456", 3)), 123u);
  for (const char* bad : {"", " ", "-1", "+1", "1x", "1.0", "0x10",
                          "18446744073709551616", "1 2"}) {
    EXPECT_THROW(parse_u64(bad), std::invalid_argument) << bad;
  }
  try {
    parse_u64(" -3");
    FAIL() << "accepted ' -3'";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "expected a non-negative integer, got ' -3'");
  }
}

TEST(Parse, SignedIntegers) {
  EXPECT_EQ(parse_i64("-5"), -5);
  EXPECT_EQ(parse_i64("+5"), 5);
  EXPECT_EQ(parse_i64(" 0 "), 0);
  EXPECT_EQ(parse_i64("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(parse_i64(std::string_view("-12,7", 3)), -12);
  for (const char* bad : {"", "x", "1.5", "9223372036854775808",
                          "-9223372036854775809", "--1"}) {
    EXPECT_THROW(parse_i64(bad), std::invalid_argument) << bad;
  }
}

TEST(Parse, Booleans) {
  EXPECT_TRUE(parse_bool("1"));
  EXPECT_TRUE(parse_bool(" true "));
  EXPECT_FALSE(parse_bool("0"));
  EXPECT_FALSE(parse_bool("false\n"));
  EXPECT_TRUE(parse_bool(std::string_view("1,0", 1)));
  for (const char* bad : {"", "yes", "TRUE", "2", "01"}) {
    EXPECT_THROW(parse_bool(bad), std::invalid_argument) << bad;
  }
  try {
    parse_bool("yes");
    FAIL() << "accepted 'yes'";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "expected a boolean (0/1/true/false), got 'yes'");
  }
}

// ---------------------------------------------------------- for_each_field

std::vector<std::string> fields_of(std::string_view text) {
  std::vector<std::string> fields;
  for_each_field(text, ',', [&](std::string_view field) {
    fields.emplace_back(field);
  });
  return fields;
}

TEST(Parse, ForEachFieldKeepsEmptyFields) {
  using Fields = std::vector<std::string>;
  EXPECT_EQ(fields_of(""), Fields{""});
  EXPECT_EQ(fields_of(","), (Fields{"", ""}));
  EXPECT_EQ(fields_of("a,,b"), (Fields{"a", "", "b"}));
  EXPECT_EQ(fields_of("a,b,"), (Fields{"a", "b", ""}));
  EXPECT_EQ(fields_of(",a"), (Fields{"", "a"}));
  EXPECT_EQ(fields_of("abc"), Fields{"abc"});
  EXPECT_EQ(fields_of(" a , b "), (Fields{" a ", " b "}));
}

}  // namespace
}  // namespace tegrec::util
