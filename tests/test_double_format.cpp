// util::append_double is the one exact-double formatter: every codec that
// round-trips doubles (checkpoints, result artifacts, spec fingerprints,
// controller blobs, JSON, CSV) prints through it, so its bytes must be
// printf("%.*g")'s bytes.  These tests hold it to snprintf differentially
// over the special values, the fixed/exponent switch, and a million random
// bit patterns, and check that csv_to_string still renders what the
// ostream-based writer it replaced rendered.
#include "util/double_format.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/csv.hpp"
#include "util/rng.hpp"

namespace tegrec::util {
namespace {

constexpr int kPrecisions[] = {12, 17};

std::string printf_g(double value, int precision) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
  return buffer;
}

/// Counts mismatches, reporting the first few, so one wrong formatter does
/// not flood the log with a million failures.
class Differ {
 public:
  void check(double value) {
    for (const int precision : kPrecisions) {
      const std::string want = printf_g(value, precision);
      const std::string got = format_double(value, precision);
      if (got != want && ++mismatches_ <= 10) {
        ADD_FAILURE() << "bits 0x" << std::hex
                      << std::bit_cast<std::uint64_t>(value) << std::dec
                      << " at precision " << precision << ": got '" << got
                      << "', snprintf '" << want << "'";
      }
    }
  }
  int mismatches() const { return mismatches_; }

 private:
  int mismatches_ = 0;
};

TEST(DoubleFormat, MatchesSnprintfOnSpecialValues) {
  using limits = std::numeric_limits<double>;
  const std::vector<double> values = {
      0.0,
      -0.0,
      limits::denorm_min(),
      -limits::denorm_min(),
      DBL_MIN,
      -DBL_MIN,
      DBL_MIN / 3.0,  // subnormal with a long expansion
      std::nextafter(DBL_MIN, 0.0),
      DBL_MAX,
      -DBL_MAX,
      limits::infinity(),
      -limits::infinity(),
      limits::quiet_NaN(),
      -limits::quiet_NaN(),
      limits::epsilon(),
      1.0,
      -1.0,
      2.0,
      7200.0,
      123456789012.0,
      9007199254740992.0,  // 2^53
      9007199254740993.0,
      0.1,
      0.2,
      0.30000000000000004,
      1.0 / 3.0,
      2.0 / 3.0,
      5e-324,
      1.7976931348623157e308,
  };
  Differ differ;
  for (const double v : values) differ.check(v);
  // Powers of ten and their neighbours across the fixed/exponent switch
  // (%g goes to exponent form below 1e-4 and at 10^precision).
  for (int e = -8; e <= 20; ++e) {
    const double p = std::pow(10.0, e);
    for (const double v : {p, std::nextafter(p, 0.0), std::nextafter(p, 1e300),
                           -p, 9.5 * p, 9.9999999999999995 * p}) {
      differ.check(v);
    }
  }
  // Rounding carries: 0.99999... rounds up to the next decade at low
  // precision and must switch notation exactly as printf does.
  for (const double v :
       {999999999999.5, 9999999999999999.0, 99999999999999999.0,
        0.000099999999999999995, 0.00009999999999995}) {
    differ.check(v);
  }
  EXPECT_EQ(differ.mismatches(), 0);
}

TEST(DoubleFormat, MatchesSnprintfOnRandomBitPatterns) {
  Rng rng(0xd0b1efu);
  Differ differ;
  for (int i = 0; i < 1'000'000; ++i) {
    differ.check(std::bit_cast<double>(rng.engine()()));
  }
  EXPECT_EQ(differ.mismatches(), 0);
}

TEST(DoubleFormat, MatchesSnprintfOnEngineeringMagnitudes) {
  // Random bit patterns almost never land in the fixed-notation range, so
  // sweep the magnitudes the simulator actually prints (powers, energies,
  // times) densely as well.
  Rng rng(42);
  Differ differ;
  for (int i = 0; i < 200'000; ++i) {
    const double mantissa = rng.uniform(-10.0, 10.0);
    differ.check(mantissa * std::pow(10.0, rng.uniform_int(-7, 18)));
  }
  EXPECT_EQ(differ.mismatches(), 0);
}

TEST(DoubleFormat, ExactPrecisionRoundTrips) {
  Rng rng(7);
  for (int i = 0; i < 100'000; ++i) {
    const double v = std::bit_cast<double>(rng.engine()());
    if (std::isnan(v)) continue;
    const std::string text = format_double(v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(std::strtod(text.c_str(), nullptr)),
              std::bit_cast<std::uint64_t>(v))
        << text;
  }
}

TEST(DoubleFormat, AppendsAndRejectsOutOfRangePrecision) {
  std::string out = "x=";
  append_double(out, 0.5);
  EXPECT_EQ(out, "x=0.5");
  EXPECT_EQ(format_double(0.1), "0.10000000000000001");
  EXPECT_EQ(format_double(2.5, 0), printf_g(2.5, 0));
  EXPECT_EQ(format_double(1.0 / 3.0, 64), printf_g(1.0 / 3.0, 64));
  EXPECT_EQ(format_double(-DBL_MIN, 64), printf_g(-DBL_MIN, 64));
  EXPECT_THROW(format_double(1.0, -1), std::invalid_argument);
  EXPECT_THROW(format_double(1.0, 65), std::invalid_argument);
}

/// csv_to_string as it was written before the formatter door: ostream
/// insertion at the table precision.
std::string ostream_csv(const CsvTable& table, int precision) {
  std::ostringstream os;
  for (std::size_t i = 0; i < table.header.size(); ++i) {
    os << table.header[i] << (i + 1 < table.header.size() ? "," : "");
  }
  os << '\n';
  os.precision(precision);
  for (const auto& row : table.rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (!std::isnan(row[i])) {
        os << row[i];
      } else if (row.size() == 1) {
        os << "nan";
      }
      if (i + 1 < row.size()) os << ',';
    }
    os << '\n';
  }
  return os.str();
}

TEST(DoubleFormat, CsvOutputIsUnchanged) {
  Rng rng(11);
  for (const std::size_t width : {1u, 3u, 9u}) {
    CsvTable table;
    for (std::size_t c = 0; c < width; ++c) {
      table.header.push_back(std::to_string(c));
    }
    for (int r = 0; r < 2000; ++r) {
      std::vector<double> row;
      for (std::size_t c = 0; c < width; ++c) {
        switch (rng.uniform_int(0, 5)) {
          case 0:
            row.push_back(std::numeric_limits<double>::quiet_NaN());
            break;
          case 1:
            row.push_back(static_cast<double>(rng.uniform_int(0, 100000)));
            break;
          case 2:
            row.push_back(std::bit_cast<double>(rng.engine()()));
            break;
          case 3:
            row.push_back(-0.0);
            break;
          default:
            row.push_back(rng.uniform(-1.0, 1.0) *
                          std::pow(10.0, rng.uniform_int(-6, 16)));
        }
      }
      table.rows.push_back(std::move(row));
    }
    for (const int precision : kPrecisions) {
      EXPECT_EQ(csv_to_string(table, precision), ostream_csv(table, precision))
          << "width " << width << ", precision " << precision;
    }
  }
}

}  // namespace
}  // namespace tegrec::util
