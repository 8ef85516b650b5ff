#include "sim/results.hpp"

#include <gtest/gtest.h>

#include "core/fixed_baseline.hpp"
#include "core/inor.hpp"

namespace tegrec::sim {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

std::vector<SimulationResult> two_runs() {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = 16;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 20.0, 30.0, 0.0}};
  config.seed = 9;
  const auto trace = thermal::generate_trace(config);
  core::InorReconfigurer inor(kDev, kConv);
  auto baseline = core::FixedBaselineReconfigurer::square_grid(16);
  return {run_simulation(inor, trace), run_simulation(baseline, trace)};
}

TEST(Results, Table1ContainsAllSchemesAndMetrics) {
  const auto runs = two_runs();
  const std::string out = render_table1(runs);
  EXPECT_NE(out.find("INOR"), std::string::npos);
  EXPECT_NE(out.find("Baseline"), std::string::npos);
  EXPECT_NE(out.find("Energy Output (J)"), std::string::npos);
  EXPECT_NE(out.find("Switch Overhead (J)"), std::string::npos);
  // Measured runtime is the Table I bench's to print, not the library's.
  EXPECT_EQ(out.find("Runtime"), std::string::npos);
  // Baseline columns use "/" like the paper's table.
  EXPECT_NE(out.find("/"), std::string::npos);
}

TEST(Results, Table1EmptyThrows) {
  EXPECT_THROW(render_table1({}), std::invalid_argument);
}

TEST(Results, PowerTimelineHasColumnsPerRun) {
  const auto runs = two_runs();
  const std::string out = render_power_timeline(runs, 8);
  EXPECT_NE(out.find("time_s"), std::string::npos);
  EXPECT_NE(out.find("INOR_W"), std::string::npos);
  EXPECT_NE(out.find("Baseline_W"), std::string::npos);
  EXPECT_NE(out.find("Pideal_W"), std::string::npos);
}

TEST(Results, RatioTimelineNormalised) {
  const auto runs = two_runs();
  const std::string out = render_ratio_timeline(runs, 8);
  EXPECT_NE(out.find("INOR/Pideal"), std::string::npos);
  EXPECT_EQ(out.find("Pideal_W"), std::string::npos);
}

TEST(Results, TimelineValidation) {
  auto runs = two_runs();
  EXPECT_THROW(render_power_timeline(runs, 0), std::invalid_argument);
  EXPECT_THROW(render_power_timeline({}, 1), std::invalid_argument);
  runs[1].steps.pop_back();
  EXPECT_THROW(render_power_timeline(runs, 1), std::invalid_argument);
}

}  // namespace
}  // namespace tegrec::sim
