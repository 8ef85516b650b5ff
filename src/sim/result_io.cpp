#include "sim/result_io.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/run_table.hpp"
#include "util/field_io.hpp"

namespace tegrec::sim {

namespace {

constexpr const char* kMagic = "# tegrec-result v1";
constexpr std::string_view kRunPrefix = "# run algorithm = ";

const std::pair<ExperimentKind, const char*> kKindNames[] = {
    {ExperimentKind::kComparison, "comparison"},
    {ExperimentKind::kMonteCarlo, "montecarlo"},
    {ExperimentKind::kSweep, "sweep"}};

constexpr std::uint64_t kLow32 = 0xffffffffULL;

// Seeds are u64; cells are doubles, exact only to 2^53, so the seed
// travels as two 32-bit halves.
constexpr auto kSampleColumns = [](auto& s, auto&& col) {
  std::size_t hi = s.seed >> 32;
  std::size_t lo = s.seed & kLow32;
  col("seed_hi", hi);
  col("seed_lo", lo);
  if constexpr (!std::is_const_v<std::remove_reference_t<decltype(s)>>) {
    if (hi > kLow32 || lo > kLow32) {
      throw std::runtime_error("result artifact: seed half out of range");
    }
    s.seed = (static_cast<std::uint64_t>(hi) << 32) | lo;
  }
  col("dnor_energy_j", s.dnor_energy_j);
  col("baseline_energy_j", s.baseline_energy_j);
  col("gain", s.gain);
  col("dnor_overhead_j", s.dnor_overhead_j);
  col("dnor_switches", s.dnor_switches);
};

constexpr auto kPointColumns = [](auto& p, auto&& col) {
  col("value", p.value);
  col("dnor_energy_j", p.dnor_energy_j);
  col("baseline_energy_j", p.baseline_energy_j);
  col("gain", p.gain);
  col("dnor_ratio_to_ideal", p.dnor_ratio_to_ideal);
};

// Every failure throws std::runtime_error; decode_result() turns each into
// nullopt (a cache miss).
ExperimentResult decode_or_throw(const std::string& text,
                                 const std::string& expected_fp_text) {
  util::LineReader lines(text, "result artifact");
  if (lines.next() != kMagic) lines.fail("bad magic");
  ExperimentResult out;
  util::FieldIo head(lines);
  const util::FieldIo::Scope comment(head, "# ");
  head.enum_field("kind", out.kind, kKindNames);
  if (lines.counted_lines("# fingerprint-lines = ") != expected_fp_text) {
    // A different spec hashed to this fingerprint (or the schema moved
    // under the artifact): miss, never a wrong result.
    lines.fail("fingerprint text mismatch");
  }

  switch (out.kind) {
    case ExperimentKind::kComparison: {
      const std::size_t num_runs = lines.expect_count("# runs = ");
      for (std::size_t i = 0; i < num_runs; ++i) {
        out.comparison.runs.push_back(read_run(lines, kRunPrefix));
      }
      break;
    }
    case ExperimentKind::kMonteCarlo:
      out.monte_carlo.samples =
          read_table<MonteCarloSample>(lines, kSampleColumns);
      detail::fold_monte_carlo_stats(out.monte_carlo);
      break;
    case ExperimentKind::kSweep:
      out.sweep = read_table<SweepPoint>(lines, kPointColumns);
      break;
  }
  lines.expect_end();
  return out;
}

}  // namespace

std::string encode_result(const ExperimentResult& result,
                          const std::string& fingerprint_text) {
  std::string out = kMagic;
  out += '\n';
  util::FieldIo head(out);
  const util::FieldIo::Scope comment(head, "# ");
  ExperimentKind kind = result.kind;
  head.enum_field("kind", kind, kKindNames);
  util::append_counted_lines(out, "# fingerprint-lines = ", fingerprint_text);
  switch (result.kind) {
    case ExperimentKind::kComparison:
      out += "# runs = ";
      out += std::to_string(result.comparison.runs.size());
      out += '\n';
      for (const SimulationResult& run : result.comparison.runs) {
        append_run(out, run, kRunPrefix);
      }
      break;
    case ExperimentKind::kMonteCarlo:
      append_table(out, result.monte_carlo.samples, kSampleColumns);
      break;
    case ExperimentKind::kSweep:
      append_table(out, result.sweep, kPointColumns);
      break;
  }
  out += "# end\n";
  return out;
}

std::optional<ExperimentResult> decode_result(
    const std::string& text, const std::string& expected_fingerprint_text) {
  try {
    return decode_or_throw(text, expected_fingerprint_text);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace tegrec::sim
