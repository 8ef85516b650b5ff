// Differential test of the one-pass telemetry row scan
// (sim::parse_telemetry_row) against the loop it replaced
// (tests/telemetry_row_oracle.hpp): every row must read to the same double
// bits, or fail with the same message, as the oracle.  Inputs are the
// traces the CLI and stream smoke tests generate, the codec-pinned trace
// and checkpoint texts of test_codec_bytes, a fixed budget of 10^6
// generated cells (edge tokens included) and rows that combine a wrong
// column count with a bad cell.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/stepper.hpp"
#include "sim/telemetry.hpp"
#include "telemetry_row_oracle.hpp"
#include "thermal/drive_cycle.hpp"
#include "thermal/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/double_format.hpp"
#include "util/rng.hpp"

namespace tegrec::sim {
namespace {

/// What reading one row gave: the bits of time, ambient and every module
/// cell, or the message it threw.
struct Outcome {
  std::vector<std::uint64_t> bits;
  std::string error;
  bool operator==(const Outcome&) const = default;
};

using RowReader = void (*)(std::string_view, double&, double&,
                           std::span<double>);

Outcome read_row(RowReader reader, std::string_view line,
                 std::size_t modules) {
  Outcome out;
  double time = 0.0;
  double ambient = 0.0;
  std::vector<double> temps(modules);
  try {
    reader(line, time, ambient, temps);
  } catch (const std::runtime_error& e) {
    out.error = e.what();
    return out;
  }
  out.bits.push_back(std::bit_cast<std::uint64_t>(time));
  out.bits.push_back(std::bit_cast<std::uint64_t>(ambient));
  for (const double t : temps) {
    out.bits.push_back(std::bit_cast<std::uint64_t>(t));
  }
  return out;
}

/// Counts rows read both ways; reports the first few that differ.
class Differ {
 public:
  void check(std::string_view line, std::size_t modules) {
    ++rows_;
    const Outcome want = read_row(&oracle::parse_telemetry_row, line, modules);
    const Outcome got = read_row(&sim::parse_telemetry_row, line, modules);
    if (want.error.empty()) ++accepted_;
    if (got == want) return;
    if (++mismatches_ <= 10) {
      ADD_FAILURE() << "row '" << line << "' with " << modules
                    << " modules: oracle "
                    << (want.error.empty() ? "accepted" : want.error)
                    << ", scan "
                    << (got.error.empty() ? "accepted" : got.error);
    }
  }

  /// Checks `line` with the module count its commas imply.
  void check_natural(std::string_view line) {
    const auto cells =
        static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) + 1;
    check(line, cells >= 2 ? cells - 2 : 0);
  }

  std::size_t rows() const { return rows_; }
  std::size_t accepted() const { return accepted_; }
  std::size_t mismatches() const { return mismatches_; }

 private:
  std::size_t rows_ = 0;
  std::size_t accepted_ = 0;
  std::size_t mismatches_ = 0;
};

std::vector<std::string_view> lines_of(std::string_view text) {
  std::vector<std::string_view> lines;
  util::for_each_field(text, '\n', [&](std::string_view line) {
    if (!line.empty()) lines.push_back(line);
  });
  return lines;
}

/// The CSV text save_csv writes for `config`'s trace.
std::string trace_csv(const thermal::TraceGeneratorConfig& config) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("tegrec_telemetry_scan_" + std::to_string(::getpid()) + ".csv"))
          .string();
  thermal::generate_trace(config).save_csv(path);
  std::optional<std::string> text = util::read_file_if_exists(path);
  std::filesystem::remove(path);
  if (!text) throw std::runtime_error("trace_csv: " + path + " vanished");
  return std::move(*text);
}

/// `tegrec_cli trace --seed S --modules N --duration D`.
thermal::TraceGeneratorConfig cli_trace(std::uint64_t seed, std::size_t modules,
                                        double duration_s) {
  thermal::TraceGeneratorConfig config;
  config.seed = seed;
  config.layout.num_modules = modules;
  config.segments = thermal::default_porter_cycle();
  for (auto& segment : config.segments) {
    segment.duration_s *= duration_s / 800.0;
  }
  return config;
}

/// test_codec_bytes' stream trace.
thermal::TraceGeneratorConfig codec_trace() {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = 12;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 40.0, 32.0, 0.0}};
  config.seed = 5;
  return config;
}

// The smoke traces (cli_smoke_trace and stream_smoke.sh) and the codec
// trace: every data row reads alike, and a LineTelemetrySource over the
// whole file delivers exactly the oracle's bits.
TEST(TelemetryScan, SmokeAndCodecTracesReadAlike) {
  for (const auto& config :
       {cli_trace(7, 24, 60.0), cli_trace(11, 16, 30.0), codec_trace()}) {
    const std::string csv = trace_csv(config);
    const std::vector<std::string_view> lines = lines_of(csv);
    ASSERT_GT(lines.size(), 20u);
    const std::size_t modules = config.layout.num_modules;
    Differ differ;
    for (std::size_t i = 1; i < lines.size(); ++i) {
      differ.check(lines[i], modules);
      differ.check(lines[i], modules + 1);  // one column short
    }
    EXPECT_EQ(differ.mismatches(), 0u);
    EXPECT_EQ(differ.accepted(), lines.size() - 1);

    auto feed = std::make_unique<StringFeed>();
    feed->push(csv);
    feed->close();
    TelemetryOptions options;
    options.dt_s = config.sample_dt_s;
    LineTelemetrySource source(std::move(feed), options);
    std::size_t row = 1;
    for (TelemetryEvent event = source.poll();
         event.kind != TelemetryEvent::Kind::kEnd; event = source.poll()) {
      ASSERT_EQ(event.kind, TelemetryEvent::Kind::kSample);
      ASSERT_LT(row, lines.size());
      double time = 0.0;
      double ambient = 0.0;
      std::vector<double> temps(modules);
      oracle::parse_telemetry_row(lines[row++], time, ambient, temps);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(event.sample.ambient_c),
                std::bit_cast<std::uint64_t>(ambient));
      ASSERT_EQ(event.sample.module_temps_c.size(), modules);
      for (std::size_t m = 0; m < modules; ++m) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(event.sample.module_temps_c[m]),
                  std::bit_cast<std::uint64_t>(temps[m]));
      }
    }
    EXPECT_EQ(row, lines.size());
  }
}

// The checkpoint texts test_codec_bytes pins: a DNOR stream 60 steps in
// and its hand-built edge state (-0, denorm_min, DBL_MAX, NaN, 2^53).
// Every line, and the value of every `key = value` line, is read as a row.
TEST(TelemetryScan, CodecCheckpointTextsReadAlike) {
  const thermal::TemperatureTrace trace =
      thermal::generate_trace(codec_trace());
  StreamConfig config;
  config.scheme = StreamScheme::kDnor;
  config.dt_s = trace.dt_s();
  config.num_modules = trace.num_modules();
  config.sim.num_threads = 1;
  const std::string stamp = stream_config_fingerprint_text(config);
  std::unique_ptr<core::Reconfigurer> controller =
      make_stream_controller(config);
  SimStepper stepper(*controller, config.dt_s, config.num_modules, config.sim);
  for (std::size_t t = 0; t < 60; ++t) {
    TraceSample sample;
    sample.time_s = static_cast<double>(t) * trace.dt_s();
    sample.module_temps_c = trace.step_temperatures(t);
    sample.ambient_c = trace.ambient_c(t);
    stepper.step(sample);
  }

  StepperState edge;
  edge.steps_consumed = 3;
  edge.has_fabric = true;
  edge.fabric_group_starts = {0, 4, 9};
  edge.battery_soc = -0.0;
  edge.battery_energy_j = std::numeric_limits<double>::max();
  edge.partial.algorithm = "edge";
  edge.partial.ideal_energy_j = std::numeric_limits<double>::denorm_min();
  edge.partial.total_switch_actuations = 9007199254740992ULL;  // 2^53
  edge.partial.final_soc = 1.0 / 3.0;
  for (std::size_t i = 0; i < 3; ++i) {
    StepRecord s;
    s.time_s = 0.5 * static_cast<double>(i);
    s.gross_power_w = i == 1 ? std::numeric_limits<double>::quiet_NaN() : 1e22;
    s.net_power_w = -1.5e-7;
    edge.partial.steps.push_back(s);
  }

  Differ differ;
  for (const std::string& text :
       {encode_checkpoint(stepper.state(), stamp, {"a, b = c"}),
        encode_checkpoint(edge, stamp, {""})}) {
    for (const std::string_view line : lines_of(text)) {
      differ.check_natural(line);
      const std::size_t eq = line.find(" = ");
      if (eq != std::string_view::npos) {
        differ.check_natural(line.substr(eq + 3));
      }
    }
  }
  EXPECT_GT(differ.rows(), 100u);
  EXPECT_GT(differ.accepted(), 10u);
  EXPECT_EQ(differ.mismatches(), 0u);
}

// Tokens either reader could get wrong: signs, padding, hex, the normal /
// subnormal / overflow boundaries, non-finite spellings and junk.
const std::vector<std::string> kEdgeTokens = {
    "0", "-0", "+0", "-0.0", "0.0e0", "00012", "1e5", "1E5", "-.5", ".5",
    "5.", "1.5e+3", "1.5e-3", "+1", "-1", " 1", "1 ", "\t2.5", "2.5\t",
    " -3 ", "1\r", "\v1", "1\f", "+ 1", "++1", "--1", "+-1", "0x1p3",
    "0X1P3", "-0x1.8p1", "0x", "5e-324", "4.9e-324", "-5e-324",
    "2.2250738585072014e-308", "2.2250738585072009e-308", "1e-310",
    "1e-400", "-1e-400", "1e308", "-1e308", "1.7976931348623157e308",
    "1.7976931348623158e308", "1.7976931348623159e308", "1e309", "1e400",
    "-1e400", "nan", "NaN", "-nan", "nan(1)", "inf", "-inf", "+inf", "INF",
    "infinity", "", " ", "\t", ".", "-", "+", "e5", "1e", "1e+", "1e-",
    "1.2.3", "10x", "x10", "abc", "1_000", "1d", "1f", "0b1", "1e5.5",
    "9007199254740993", "0.1000000000000000055511151231257827",
    "123456789012345678901234567890"};

/// A token shaped like a number: a shortest or fixed-precision rendering
/// of a temperature-like value or of random bits (subnormals included).
std::string number_token(util::Rng& rng) {
  double value = 0.0;
  if (rng.bernoulli(0.5)) {
    value = rng.uniform(-60.0, 450.0);
  } else {
    do {
      value = std::bit_cast<double>(rng.engine()());
    } while (!std::isfinite(value));
  }
  if (rng.bernoulli(0.5)) {
    return util::format_double(value, rng.uniform_int(1, 17));
  }
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, end);
}

/// A number token with one character inserted, replaced or appended.
std::string mutated_token(util::Rng& rng) {
  static constexpr std::string_view kChars = " \t+-.eExX0123456789n_";
  std::string token = number_token(rng);
  const char c = kChars[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(kChars.size()) - 1))];
  const auto at = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(token.size())));
  switch (rng.uniform_int(0, 2)) {
    case 0:
      token.insert(at, 1, c);
      break;
    case 1:
      if (at < token.size()) {
        token[at] = c;
      } else {
        token += c;
      }
      break;
    default:
      token += c;
      break;
  }
  return token;
}

std::string random_cell(util::Rng& rng) {
  const double pick = rng.uniform(0.0, 1.0);
  if (pick < 0.90) return number_token(rng);
  if (pick < 0.96) {
    return kEdgeTokens[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(kEdgeTokens.size()) - 1))];
  }
  return mutated_token(rng);
}

// A fixed budget of 10^6 generated cells in rows of 1-16 cells.  One row
// in eight is also read against a wrong module count.
TEST(TelemetryScan, GeneratedCellsReadAlike) {
  constexpr std::size_t kCells = 1000000;
  util::Rng rng(0x7e1e);
  Differ differ;
  std::string line;
  for (std::size_t cells = 0; cells < kCells;) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 16));
    line.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) line += ',';
      line += random_cell(rng);
    }
    cells += n;
    differ.check_natural(line);
    if (rng.bernoulli(0.125)) {
      differ.check(line, static_cast<std::size_t>(rng.uniform_int(0, 18)));
    }
  }
  EXPECT_EQ(differ.mismatches(), 0u);
  // Most rows hold only numbers, so most cells are read to bits, not
  // skipped past a bad cell.
  EXPECT_GT(differ.accepted(), differ.rows() / 3);
}

// Every edge token in every position of a row: time, ambient, a middle
// module cell and the last one.
TEST(TelemetryScan, EdgeTokensInEveryColumn) {
  Differ differ;
  for (const std::string& token : kEdgeTokens) {
    differ.check(token + ",20,30,31", 2);
    differ.check("0," + token + ",30,31", 2);
    differ.check("0,20," + token + ",31", 2);
    differ.check("0,20,30," + token, 2);
  }
  EXPECT_EQ(differ.mismatches(), 0u);
  EXPECT_EQ(read_row(&sim::parse_telemetry_row, "0,20,+1,0x1p3", 2).bits,
            (std::vector<std::uint64_t>{
                std::bit_cast<std::uint64_t>(0.0),
                std::bit_cast<std::uint64_t>(20.0),
                std::bit_cast<std::uint64_t>(1.0),
                std::bit_cast<std::uint64_t>(8.0)}));
}

// A wrong column count wins over a bad cell wherever the bad cell sits:
// before the missing cells, among the surplus ones, or alone.
TEST(TelemetryScan, ColumnCountWinsOverABadCell) {
  Differ differ;
  for (const std::string row :
       {"0,abc", "abc,20", "0,20,abc", "0,20,30,31,abc", "abc,20,30,31,32",
        "0,20,30,31,", ",,,,", ",", "0,20,30,nan,31", "0,20,nan",
        "1e400,20,30,31,32,33", "0,20,30,31,32,1e400", "0x1p3,20,30"}) {
    differ.check(row, 2);
  }
  EXPECT_EQ(differ.mismatches(), 0u);
  EXPECT_EQ(read_row(&sim::parse_telemetry_row, "0,20,30,31,abc", 2).error,
            "telemetry: row has 5 columns, expected 4");
  EXPECT_EQ(read_row(&sim::parse_telemetry_row, "0,20,abc", 2).error,
            "telemetry: row has 3 columns, expected 4");
  EXPECT_EQ(read_row(&sim::parse_telemetry_row, "0,20,abc,31", 2).error,
            "telemetry: unparseable cell: expected a number, got 'abc'");
}

}  // namespace
}  // namespace tegrec::sim
