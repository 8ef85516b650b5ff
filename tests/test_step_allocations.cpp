// Steady-state allocation counts of the per-step paths.
//
// After warm-up, InorReconfigurer::update and SimStepper::step must make
// the same number of heap allocations per step at N = 64 as at N = 1000,
// and INOR's count must not grow with its group-count window: the port
// snapshot, the evaluator's prefix sums, INOR's prefix and candidate
// buffers and the switch fabric's boundary list are all reused in place.
// A telemetry gap is held lazily: the allocations made while a line that
// skips grid steps is ingested do not depend on how many it skips.
// Counted with a global operator new (the pattern of
// tests/test_ehtr_stream.cpp), one count per call.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/dnor.hpp"
#include "core/fixed_baseline.hpp"
#include "core/inor.hpp"
#include "sim/checkpoint.hpp"
#include "sim/stepper.hpp"
#include "sim/telemetry.hpp"
#include "thermal/scenario.hpp"
#include "thermal/trace.hpp"

// GCC flags new-from-malloc / delete-into-free pairs as mismatched even
// though malloc/free-backed replacement is the conforming way to replace
// the global forms; silence that one diagnostic for this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tegrec::sim {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

constexpr std::size_t kWarmupSteps = 40;
constexpr std::size_t kCountedSteps = 60;

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

thermal::TemperatureTrace make_trace(std::size_t modules) {
  thermal::TraceGeneratorConfig config = thermal::scenario("urban_stop_start");
  config.layout.num_modules = modules;
  config.seed = 7;
  double total_s = 0.0;
  for (const auto& segment : config.segments) total_s += segment.duration_s;
  for (auto& segment : config.segments) segment.duration_s *= 60.0 / total_s;
  return thermal::generate_trace(config);
}

std::vector<double> delta_t_at(const thermal::TemperatureTrace& trace,
                               std::size_t t) {
  std::vector<double> out = trace.step_temperatures(t);
  for (double& x : out) x = std::max(0.0, x - trace.ambient_c(t));
  return out;
}

/// Allocations of kCountedSteps INOR updates after kWarmupSteps, with the
/// inputs built outside the counted region.
std::size_t inor_update_allocations(std::size_t modules,
                                    const core::InorOptions& options) {
  const thermal::TemperatureTrace trace = make_trace(modules);
  std::vector<std::vector<double>> inputs;
  for (std::size_t t = 0; t < kWarmupSteps + kCountedSteps; ++t) {
    inputs.push_back(delta_t_at(trace, t));
  }
  core::InorReconfigurer inor(kDev, kConv, trace.dt_s(), options);
  std::size_t before = 0;
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    if (t == kWarmupSteps) before = allocations();
    const core::UpdateResult r = inor.update(
        static_cast<double>(t) * trace.dt_s(), inputs[t], trace.ambient_c(t));
    EXPECT_TRUE(r.invoked);
  }
  return allocations() - before;
}

/// Allocations of kCountedSteps SimStepper::step calls after
/// kWarmupSteps, samples built outside the counted region.
std::size_t step_allocations(const std::string& scheme, std::size_t modules) {
  const thermal::TemperatureTrace trace = make_trace(modules);
  std::vector<TraceSample> samples(kWarmupSteps + kCountedSteps);
  for (std::size_t t = 0; t < samples.size(); ++t) {
    samples[t].time_s = static_cast<double>(t) * trace.dt_s();
    samples[t].module_temps_c = trace.step_temperatures(t);
    samples[t].ambient_c = trace.ambient_c(t);
  }
  StreamConfig config;
  config.scheme = parse_stream_scheme(scheme);
  config.num_modules = modules;
  const std::unique_ptr<core::Reconfigurer> controller =
      make_stream_controller(config);
  SimStepper stepper(*controller, trace.dt_s(), modules, config.sim);
  std::size_t before = 0;
  for (std::size_t t = 0; t < samples.size(); ++t) {
    if (t == kWarmupSteps) before = allocations();
    stepper.step(samples[t]);
  }
  return allocations() - before;
}

/// Allocations of the poll() that ingests a line `gap` grid steps past the
/// stream position (and delivers the first fill), under the default
/// GapPolicy::kHoldLast.
std::size_t gap_line_allocations(std::size_t gap) {
  auto feed = std::make_unique<StringFeed>();
  StringFeed* raw = feed.get();
  raw->push("time_s,ambient_c,t0,t1\n0,25,30,31\n");
  TelemetryOptions options;
  options.dt_s = 0.5;
  LineTelemetrySource source(std::move(feed), options);
  EXPECT_EQ(source.poll().kind, TelemetryEvent::Kind::kSample);
  // A zero-padded stamp keeps the line the same length for every gap.
  char line[64];
  std::snprintf(line, sizeof line, "%08.1f,25,30,31\n",
                0.5 * static_cast<double>(gap + 1));
  raw->push(line);
  const std::size_t before = allocations();
  const TelemetryEvent event = source.poll();
  const std::size_t counted = allocations() - before;
  EXPECT_EQ(event.kind, TelemetryEvent::Kind::kSample);
  EXPECT_EQ(event.issues.size(), 1u);
  EXPECT_EQ(source.samples_emitted(), gap + 2);
  return counted;
}

TEST(StepAllocations, InorUpdateCountIndependentOfArraySize) {
  const std::size_t small = inor_update_allocations(64, {});
  const std::size_t large = inor_update_allocations(1000, {});
  EXPECT_EQ(small, large);
  // The winner's ArrayConfig and the UpdateResult's copy of it.
  EXPECT_EQ(large, 2 * kCountedSteps);
}

TEST(StepAllocations, InorUpdateCountIndependentOfGroupWindow) {
  const std::size_t narrow =
      inor_update_allocations(1000, core::InorOptions{.nmin = 2, .nmax = 4});
  const std::size_t wide =
      inor_update_allocations(1000, core::InorOptions{.nmin = 2, .nmax = 400});
  EXPECT_EQ(narrow, wide);
}

TEST(StepAllocations, StepperCountIndependentOfArraySize) {
  for (const std::string scheme : {"inor", "baseline", "dnor"}) {
    SCOPED_TRACE(scheme);
    EXPECT_EQ(step_allocations(scheme, 64), step_allocations(scheme, 1000));
  }
}

TEST(StepAllocations, TelemetryGapCountIndependentOfGapLength) {
  EXPECT_EQ(gap_line_allocations(10), gap_line_allocations(10000));
}

}  // namespace
}  // namespace tegrec::sim
