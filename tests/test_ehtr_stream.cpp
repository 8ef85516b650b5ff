// Streaming-candidate suite for the EHTR hot path:
//  * PartitionTable::reconstruct / config / for_each_candidate must
//    reproduce the materialising balanced_partitions wrapper exactly,
//  * the streaming ehtr_search must choose a config bit-identical to the
//    materialise-then-argmax path across seeds, thread counts, and
//    max_groups caps (and through the simulator),
//  * the candidate sweep must allocate O(N) bytes where materialising all
//    partitions allocates O(N^2) — asserted with a global operator-new
//    byte counter at N = 2048.
#include "core/ehtr.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "core/objective.hpp"
#include "sim/simulator.hpp"
#include "teg/array_evaluator.hpp"
#include "thermal/trace.hpp"
#include "util/rng.hpp"

// ----------------------------------------------------------------------
// Global allocation counter.  new[] / delete[] default to forwarding into
// these replaceable forms, so three overrides cover the containers under
// test.  Counting is cumulative-allocated (frees are not subtracted):
// exactly the "bytes churned per sweep" the streaming refactor targets.
//
// GCC flags new-from-malloc / delete-into-free pairs as mismatched even
// though malloc/free-backed replacement is the textbook-conforming way to
// replace the global forms ([new.delete.single]); silence that one
// diagnostic for this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::size_t> g_allocated_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tegrec::core {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

// The PR 2 shape the streaming path must stay bit-identical to:
// materialise every candidate, score via the cached evaluator, take the
// lowest-index argmax.
teg::ArrayConfig materialised_argmax(const teg::TegArray& array,
                                     const power::Converter& conv,
                                     std::size_t max_groups,
                                     PartitionDp dp = PartitionDp::kDivideAndConquer) {
  std::vector<double> impp = array.module_mpp_currents();
  for (double& x : impp) {
    if (!std::isfinite(x)) x = 0.0;
  }
  const std::vector<teg::ArrayConfig> candidates =
      balanced_partitions(impp, max_groups, dp);
  const teg::ArrayEvaluator evaluator(array);
  std::size_t best = 0;
  double best_power = -1.0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double p = config_power_w(evaluator, conv, candidates[i]);
    if (p > best_power) {
      best_power = p;
      best = i;
    }
  }
  return candidates[best];
}

TEST(PartitionTableSuite, MatchesBalancedPartitionsBothDps) {
  util::Rng rng(2024);
  for (const std::size_t n : {1ul, 2ul, 7ul, 33ul, 96ul}) {
    std::vector<double> impp(n);
    for (auto& x : impp) x = rng.uniform(0.05, 2.5);
    for (const PartitionDp dp :
         {PartitionDp::kDivideAndConquer, PartitionDp::kLegacyCubic}) {
      const PartitionTable table(impp, n, dp);
      EXPECT_EQ(table.num_modules(), n);
      EXPECT_EQ(table.max_groups(), n);
      const auto materialised = balanced_partitions(impp, n, dp);
      ASSERT_EQ(materialised.size(), n);
      std::vector<std::size_t> scratch;
      for (std::size_t g = 1; g <= n; ++g) {
        EXPECT_EQ(table.config(g), materialised[g - 1]) << "n " << n << " g " << g;
        table.reconstruct(g, scratch);
        ASSERT_EQ(scratch.size(), g);
        EXPECT_EQ(scratch, materialised[g - 1].group_starts());
      }
    }
  }
}

TEST(PartitionTableSuite, CappedTablePrefixesTheFullOne) {
  // A max_groups cap must not change the candidates it does keep: the DP
  // layers are independent of how many more layers follow.
  util::Rng rng(5);
  std::vector<double> impp(48);
  for (auto& x : impp) x = rng.uniform(0.1, 2.0);
  const PartitionTable full(impp, 48);
  const PartitionTable capped(impp, 9);
  for (std::size_t g = 1; g <= 9; ++g) {
    EXPECT_EQ(capped.config(g), full.config(g)) << "g " << g;
  }
}

TEST(PartitionTableSuite, ForEachCandidateStreamsInOrder) {
  std::vector<double> impp{1.0, 2.0, 0.5, 1.5, 0.75};
  const PartitionTable table(impp, 5);
  std::size_t expected_n = 1;
  table.for_each_candidate([&](std::size_t n, const std::vector<std::size_t>& starts) {
    EXPECT_EQ(n, expected_n++);
    ASSERT_EQ(starts.size(), n);
    EXPECT_EQ(starts.front(), 0u);
    EXPECT_EQ(teg::ArrayConfig(starts, 5), table.config(n));
  });
  EXPECT_EQ(expected_n, 6u);
}

TEST(PartitionTableSuite, ValidatesInputs) {
  EXPECT_THROW(PartitionTable({}, 1), std::invalid_argument);
  EXPECT_THROW(PartitionTable({1.0, 2.0}, 0), std::invalid_argument);
  EXPECT_THROW(PartitionTable({1.0, 2.0}, 3), std::invalid_argument);
  EXPECT_THROW(PartitionTable({1.0, std::nan("")}, 2), std::invalid_argument);
  const PartitionTable table({1.0, 2.0}, 2);
  std::vector<std::size_t> scratch;
  EXPECT_THROW(table.reconstruct(0, scratch), std::out_of_range);
  EXPECT_THROW(table.reconstruct(3, scratch), std::out_of_range);
}

TEST(EvaluatorSpanSuite, SpanAndConfigOverloadsBitIdentical) {
  util::Rng rng(17);
  std::vector<double> dts(30);
  for (auto& dt : dts) dt = rng.uniform(3.0, 42.0);
  const teg::TegArray array(kDev, dts);
  const teg::ArrayEvaluator evaluator(array);
  const auto candidates = balanced_partitions(array.module_mpp_currents(), 30);
  for (const teg::ArrayConfig& c : candidates) {
    const teg::LinearSource via_config = evaluator.string_equivalent(c);
    const teg::LinearSource via_span =
        evaluator.string_equivalent(std::span(c.group_starts()));
    EXPECT_EQ(via_span.voc_v, via_config.voc_v);
    EXPECT_EQ(via_span.r_ohm, via_config.r_ohm);
  }
  // Malformed starts are rejected, not scored.
  EXPECT_THROW(evaluator.string_equivalent(std::span<const std::size_t>()),
               std::invalid_argument);
  const std::vector<std::size_t> bad_first{1, 4};
  EXPECT_THROW(evaluator.string_equivalent(std::span(bad_first)),
               std::invalid_argument);
  const std::vector<std::size_t> not_increasing{0, 7, 7};
  EXPECT_THROW(evaluator.string_equivalent(std::span(not_increasing)),
               std::out_of_range);
}

TEST(EhtrStreaming, MatchesMaterialisedArgmaxAcrossSeedsAndThreads) {
  const power::Converter conv(kConv);
  for (std::size_t trial = 0; trial < 6; ++trial) {
    util::Rng rng(300 + trial);
    const std::size_t n = 16 + 17 * trial;
    std::vector<double> dts(n);
    for (auto& dt : dts) dt = rng.uniform(4.0, 40.0);
    const teg::TegArray array(kDev, dts);
    const teg::ArrayConfig reference = materialised_argmax(array, conv, n);
    for (const std::size_t threads : {1ul, 4ul, 0ul}) {
      EXPECT_EQ(ehtr_search(array, conv, threads), reference)
          << "trial " << trial << " threads " << threads;
    }
  }
}

TEST(EhtrStreaming, MaxGroupsCapMatchesCappedMaterialisedArgmax) {
  const power::Converter conv(kConv);
  util::Rng rng(404);
  std::vector<double> dts(60);
  for (auto& dt : dts) dt = rng.uniform(4.0, 40.0);
  const teg::TegArray array(kDev, dts);
  for (const std::size_t cap : {1ul, 2ul, 5ul, 13ul, 37ul, 60ul}) {
    const teg::ArrayConfig reference = materialised_argmax(array, conv, cap);
    for (const std::size_t threads : {1ul, 4ul}) {
      const teg::ArrayConfig chosen =
          ehtr_search(array, conv, threads, PartitionDp::kDivideAndConquer, cap);
      EXPECT_EQ(chosen, reference) << "cap " << cap << " threads " << threads;
      EXPECT_LE(chosen.num_groups(), cap);
    }
  }
  // 0 and out-of-range caps clamp to N rather than throwing: operator
  // convenience for "no cap" configs.
  EXPECT_EQ(ehtr_search(array, conv, 1, PartitionDp::kDivideAndConquer, 0),
            ehtr_search(array, conv, 1, PartitionDp::kDivideAndConquer, 60));
  EXPECT_EQ(ehtr_search(array, conv, 1, PartitionDp::kDivideAndConquer, 1000),
            ehtr_search(array, conv, 1, PartitionDp::kDivideAndConquer, 60));
}

TEST(EhtrStreaming, LegacyDpStreamsIdentically) {
  const power::Converter conv(kConv);
  util::Rng rng(71);
  std::vector<double> dts(32);
  for (auto& dt : dts) dt = rng.uniform(4.0, 40.0);
  const teg::TegArray array(kDev, dts);
  EXPECT_EQ(ehtr_search(array, conv, 1, PartitionDp::kLegacyCubic),
            materialised_argmax(array, conv, 32, PartitionDp::kLegacyCubic));
}

// End-to-end: a capped, multi-threaded EHTR simulation must be
// bit-identical to the serial run, and its per-step configs respect the
// cap (checked indirectly through identical energies vs a serial capped
// run, plus the direct config check above).
TEST(EhtrStreaming, SimulationWithCapBitIdenticalAcrossThreadCounts) {
  thermal::TemperatureTrace trace(0.5, 20);
  for (std::size_t t = 0; t < 30; ++t) {
    std::vector<double> temps(20);
    for (std::size_t i = 0; i < 20; ++i) {
      temps[i] = 25.0 + 28.0 * std::exp(-static_cast<double>(i) / 9.0) +
                 2.5 * std::sin(0.4 * static_cast<double>(t) +
                                0.6 * static_cast<double>(i));
    }
    trace.append(temps, 25.0);
  }

  auto run = [&](std::size_t num_threads, std::size_t max_groups) {
    sim::SimulationOptions options;
    options.num_threads = num_threads;
    options.ehtr_max_groups = max_groups;
    core::EhtrReconfigurer ehtr(options.device, options.converter, 0.5,
                                num_threads, max_groups);
    return sim::run_simulation(ehtr, trace, options);
  };
  const sim::SimulationResult serial = run(1, 7);
  const sim::SimulationResult threaded = run(4, 7);
  EXPECT_EQ(serial.energy_output_j, threaded.energy_output_j);
  EXPECT_EQ(serial.battery_energy_j, threaded.battery_energy_j);
  EXPECT_EQ(serial.total_switch_actuations, threaded.total_switch_actuations);

  // The cap changes which configs are reachable: forcing a single parallel
  // group cannot match the uncapped search on a 13.8 V rail.
  const sim::SimulationResult all_parallel = run(1, 1);
  const sim::SimulationResult uncapped = run(1, 0);
  EXPECT_NE(all_parallel.energy_output_j, uncapped.energy_output_j);
}

// The allocation-scale acceptance criterion: at N = 2048 the streaming
// sweep (reconstruct + score every candidate out of one PartitionTable)
// must stay O(N) bytes while materialising the candidate vector costs
// O(N^2) — the ~N^2/2 group-start words the tentpole removes from
// ehtr_search.
TEST(EhtrStreaming, CandidateSweepAllocatesLinearNotQuadraticBytes) {
  constexpr std::size_t kN = 2048;
  std::vector<double> dts(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(kN);
    dts[i] = 35.0 * std::exp(-1.7 * x) + 5.0;
  }
  const teg::TegArray array(kDev, dts);
  const power::Converter conv(kConv);
  const teg::ArrayEvaluator evaluator(array);
  const PartitionTable table(array.module_mpp_currents(), kN);

  // Streaming sweep: score every candidate, keep only the best.
  const std::size_t before_stream =
      g_allocated_bytes.load(std::memory_order_relaxed);
  std::size_t best_n = 1;
  double best_power = -1.0;
  table.for_each_candidate([&](std::size_t n, const std::vector<std::size_t>& starts) {
    const double p =
        power::optimal_operating_point(
            evaluator.string_equivalent(std::span<const std::size_t>(starts)),
            conv)
            .output_power_w;
    if (p > best_power) {
      best_power = p;
      best_n = n;
    }
  });
  const teg::ArrayConfig chosen = table.config(best_n);
  const std::size_t stream_bytes =
      g_allocated_bytes.load(std::memory_order_relaxed) - before_stream;

  // Materialising sweep over the same table: the old candidate vector.
  const std::size_t before_mat =
      g_allocated_bytes.load(std::memory_order_relaxed);
  std::vector<teg::ArrayConfig> candidates;
  candidates.reserve(kN);
  for (std::size_t n = 1; n <= kN; ++n) candidates.push_back(table.config(n));
  const std::size_t mat_bytes =
      g_allocated_bytes.load(std::memory_order_relaxed) - before_mat;

  // ~N^2/2 words of group starts — clearly quadratic (3 N^2 keeps margin
  // against allocator-growth details while staying far above any O(N) sum).
  EXPECT_GT(mat_bytes, kN * kN * 3);
  // The streaming sweep churns the scratch buffer, the chosen config, and
  // per-candidate noise — comfortably under 1 MB at N = 2048 and at least
  // an order of magnitude below the materialised vector.
  EXPECT_LT(stream_bytes, std::size_t{1} << 20);
  EXPECT_LT(stream_bytes * 16, mat_bytes);
  // Sanity: the streamed winner is the same config the vector would yield.
  EXPECT_EQ(chosen, candidates[best_n - 1]);
}

}  // namespace
}  // namespace tegrec::core
