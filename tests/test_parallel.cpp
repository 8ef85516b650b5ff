#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/montecarlo.hpp"
#include "sim/spec.hpp"
#include "util/parallel.hpp"

namespace tegrec {
namespace {

// ------------------------------------------------------------ parallel_for

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  util::parallel_for(kN, 4, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsANoop) {
  bool called = false;
  util::parallel_for(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleThreadRunsInlineInOrder) {
  std::vector<std::size_t> order;
  util::parallel_for(8, 1, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, RethrowsBodyException) {
  EXPECT_THROW(
      util::parallel_for(64, 4,
                         [](std::size_t i) {
                           if (i == 17) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

TEST(ParallelFor, MoreThreadsThanWorkStillCoversAll) {
  std::vector<std::atomic<int>> visits(3);
  util::parallel_for(3, 16, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(visits[i].load(), 1);
}

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsSubmittedTasks) {
  util::ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  util::ThreadPool pool(2);
  pool.wait_idle();  // must not hang
}

TEST(ThreadPool, WaitIdleRethrowsFirstTaskException) {
  util::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error is consumed and the pool stays usable.
  std::atomic<int> counter{0};
  pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, WaitIdleReturnsOnlyAfterTheTaskIsReleased) {
  // The worker destroys a task's captures before wait_idle() returns, so
  // the caller may free what they point at; repeated to give a late
  // release the chance to show.
  util::ThreadPool pool(1);
  for (int i = 0; i < 2000; ++i) {
    auto token = std::make_shared<int>(i);
    pool.submit([token] {
      throw std::runtime_error("task " + std::to_string(*token));
    });
    EXPECT_THROW(pool.wait_idle(), std::runtime_error);
    EXPECT_EQ(token.use_count(), 1);
  }
}

TEST(ThreadPool, AtLeastOneWorker) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> counter{0};
  pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

// ------------------------------------------------- engine determinism

sim::MonteCarloOptions tiny_mc_options() {
  sim::MonteCarloOptions options;
  // 24 modules / one short urban slice: small enough for test speed, large
  // enough that the square-grid baseline clears the converter input floor.
  options.base_trace.layout.num_modules = 24;
  options.base_trace.segments = {
      {thermal::DriveSegment::Kind::kUrban, 25.0, 30.0, 0.0}};
  options.comparison.include_inor = false;
  options.comparison.include_ehtr = false;
  options.num_seeds = 5;
  options.first_seed = 42;
  return options;
}

TEST(ParallelDeterminism, MonteCarloBitIdenticalAcrossThreadCounts) {
  // The direct engine on purpose: the public run_monte_carlo wrapper now
  // serves the second call from the ExperimentService result cache (thread
  // counts share one fingerprint), which would turn this determinism check
  // into comparing a result with itself.
  sim::MonteCarloOptions options = tiny_mc_options();
  options.num_threads = 1;
  const sim::MonteCarloSummary serial =
      sim::detail::run_monte_carlo_direct(options);
  options.num_threads = 4;
  const sim::MonteCarloSummary parallel =
      sim::detail::run_monte_carlo_direct(options);

  ASSERT_EQ(serial.samples.size(), parallel.samples.size());
  for (std::size_t k = 0; k < serial.samples.size(); ++k) {
    const sim::MonteCarloSample& a = serial.samples[k];
    const sim::MonteCarloSample& b = parallel.samples[k];
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.dnor_energy_j, b.dnor_energy_j);        // exact, not near:
    EXPECT_EQ(a.baseline_energy_j, b.baseline_energy_j);  // bit-identical
    EXPECT_EQ(a.gain, b.gain);
    EXPECT_EQ(a.dnor_overhead_j, b.dnor_overhead_j);
    EXPECT_EQ(a.dnor_switches, b.dnor_switches);
  }
  EXPECT_EQ(serial.gain.mean(), parallel.gain.mean());
  EXPECT_EQ(serial.gain.stddev(), parallel.gain.stddev());
  EXPECT_EQ(serial.dnor_energy_j.mean(), parallel.dnor_energy_j.mean());
  EXPECT_EQ(serial.dnor_overhead_j.mean(), parallel.dnor_overhead_j.mean());
  EXPECT_EQ(serial.dnor_switches.mean(), parallel.dnor_switches.mean());
}

TEST(ParallelDeterminism, SweepBitIdenticalAcrossThreadCounts) {
  const sim::MonteCarloOptions base = tiny_mc_options();
  sim::ExperimentSpec spec;
  spec.kind = sim::ExperimentKind::kSweep;
  spec.trace.kind = sim::TraceSource::Kind::kGenerated;
  spec.trace.generator = base.base_trace;
  spec.comparison = base.comparison;
  spec.sweep_parameter_name = "num_modules";
  spec.sweep_values = {16, 20, 24, 28};

  spec.sweep_num_threads = 1;
  const std::vector<sim::SweepPoint> serial = sim::run_experiment(spec).sweep;
  spec.sweep_num_threads = 4;
  const std::vector<sim::SweepPoint> parallel = sim::run_experiment(spec).sweep;

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].value, parallel[i].value);
    EXPECT_EQ(serial[i].dnor_energy_j, parallel[i].dnor_energy_j);
    EXPECT_EQ(serial[i].baseline_energy_j, parallel[i].baseline_energy_j);
    EXPECT_EQ(serial[i].gain, parallel[i].gain);
    EXPECT_EQ(serial[i].dnor_ratio_to_ideal, parallel[i].dnor_ratio_to_ideal);
  }
}

}  // namespace
}  // namespace tegrec
