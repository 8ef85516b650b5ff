// Differential harness for the warm-started actuation path (ISSUE 10).
//
// The warm-start machinery in ehtr_search is an equivalence theorem, not a
// behaviour: for every input and every warm setting the chosen config and
// its charger-aware score must be *bit-identical* to the cold full sweep.
// Likewise the SIMD scoring kernel in ArrayEvaluator must return port
// models bit-identical to the scalar oracle.  Every comparison here is
// EXPECT_EQ on exact doubles — no tolerances, by design: the moment either
// path diverges in the last ulp the caching/fingerprint story breaks.
#include "core/ehtr.hpp"

#include <cmath>
#include <cstddef>
#include <gtest/gtest.h>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/objective.hpp"
#include "teg/array_evaluator.hpp"
#include "util/rng.hpp"

namespace tegrec::core {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

/// Exhaust-like profile that drifts slowly between control periods: decaying
/// base shape, a slow travelling wave, small per-module noise, and a per-step
/// warm-up ramp.  Consecutive steps move the optimum a little — exactly the
/// regime the warm start exploits.
std::vector<double> drifting_field(util::Rng& rng, std::size_t n, int step) {
  std::vector<double> dts(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n);
    dts[i] = 4.0 + 38.0 * std::exp(-1.9 * x) +
             3.0 * std::sin(9.0 * x + 0.35 * step) + rng.uniform(0.0, 1.5) +
             0.4 * step;
  }
  return dts;
}

TEST(EhtrWarm, BitIdenticalToColdAcrossSeedsAndDriftingFields) {
  const std::size_t n = 64;
  const power::Converter conv(kConv);
  for (unsigned seed = 0; seed < 20; ++seed) {
    util::Rng rng(seed);
    std::size_t incumbent = 0;  // first step: no held config, window seed
    for (int step = 0; step < 5; ++step) {
      const teg::TegArray array(kDev, drifting_field(rng, n, step));
      const teg::ArrayEvaluator evaluator(array);
      const teg::ArrayConfig cold = ehtr_search(array, conv);

      EhtrWarmStart warm;
      warm.enabled = true;
      warm.incumbent_groups = incumbent;
      warm.width = 8;
      EhtrSearchStats stats;
      const teg::ArrayConfig hot =
          ehtr_search(array, conv, 1, PartitionDp::kDivideAndConquer, 0, warm,
                      &stats);

      ASSERT_EQ(hot, cold) << "seed " << seed << " step " << step;
      EXPECT_EQ(config_power_w(evaluator, conv, hot),
                config_power_w(evaluator, conv, cold));
      EXPECT_TRUE(stats.warm_used);
      EXPECT_EQ(stats.max_groups, n);
      EXPECT_LE(stats.groups_certified, stats.max_groups);
      incumbent = hot.num_groups();  // carry like the controller does
    }
  }
}

TEST(EhtrWarm, BitIdenticalAcrossThreadsDpKindsAndCaps) {
  const std::size_t n = 48;
  const power::Converter conv(kConv);
  const PartitionDp kinds[] = {PartitionDp::kDivideAndConquer,
                               PartitionDp::kLegacyCubic};
  const std::size_t caps[] = {0, 7, 24};       // 0 = full sweep
  const std::size_t threads[] = {1, 4, 0};     // 0 = hardware concurrency
  util::Rng rng(1234);
  for (unsigned trial = 0; trial < 5; ++trial) {
    const teg::TegArray array(kDev, drifting_field(rng, n, int(trial)));
    const teg::ArrayEvaluator evaluator(array);
    for (const PartitionDp dp : kinds) {
      for (const std::size_t cap : caps) {
        // Cold reference: single-threaded full solve of this (dp, cap).
        const teg::ArrayConfig cold = ehtr_search(array, conv, 1, dp, cap);
        const double cold_power = config_power_w(evaluator, conv, cold);
        for (const std::size_t nt : threads) {
          EhtrWarmStart warm;
          warm.enabled = true;
          warm.incumbent_groups = (trial % 2) ? cold.num_groups() : 0;
          warm.width = 4;  // small: forces the certified extension loop
          const teg::ArrayConfig hot = ehtr_search(array, conv, nt, dp, cap, warm);
          ASSERT_EQ(hot, cold)
              << "dp=" << int(dp) << " cap=" << cap << " threads=" << nt;
          EXPECT_EQ(config_power_w(evaluator, conv, hot), cold_power);
        }
      }
    }
  }
}

TEST(EhtrWarm, ExtremeWarmSettingsStillMatchCold) {
  // width = 1 maximises reliance on the certified extension loop; an absurd
  // incumbent (beyond max_groups) must fall back to the window seed; and a
  // huge width degenerates to the cold sweep outright.
  const std::size_t n = 56;
  const power::Converter conv(kConv);
  util::Rng rng(77);
  const teg::TegArray array(kDev, drifting_field(rng, n, 0));
  const teg::ArrayEvaluator evaluator(array);
  const teg::ArrayConfig cold = ehtr_search(array, conv);
  const double cold_power = config_power_w(evaluator, conv, cold);

  struct Case {
    std::size_t incumbent;
    std::size_t width;
  };
  const Case cases[] = {{0, 1}, {cold.num_groups(), 1}, {1, 1},
                        {n, 1},  {n + 1000, 3},          {0, 100000}};
  for (const Case& c : cases) {
    EhtrWarmStart warm;
    warm.enabled = true;
    warm.incumbent_groups = c.incumbent;
    warm.width = c.width;
    EhtrSearchStats stats;
    const teg::ArrayConfig hot =
        ehtr_search(array, conv, 1, PartitionDp::kDivideAndConquer, 0, warm,
                    &stats);
    ASSERT_EQ(hot, cold) << "incumbent=" << c.incumbent << " width=" << c.width;
    EXPECT_EQ(config_power_w(evaluator, conv, hot), cold_power);
    EXPECT_TRUE(stats.warm_used);
  }
}

TEST(EhtrWarm, PruningActuallyEngagesOnLargeArrays) {
  // On a big array with the default 400 W converter cap the score bound
  // falls like 1/n and must certify a tail away — otherwise the warm path
  // is a no-op and the bench's speedup claim is vacuous.
  const std::size_t n = 2000;
  std::vector<double> dts(n);
  util::Rng rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n);
    dts[i] = 4.0 + 38.0 * std::exp(-1.9 * x) + rng.uniform(0.0, 1.0);
  }
  const teg::TegArray array(kDev, dts);
  const teg::ArrayEvaluator evaluator(array);
  const power::Converter conv(kConv);

  EhtrWarmStart warm;
  warm.enabled = true;
  warm.incumbent_groups = 0;  // seed from the converter window
  warm.width = 64;
  EhtrSearchStats stats;
  const teg::ArrayConfig hot =
      ehtr_search(array, conv, 0, PartitionDp::kDivideAndConquer, 0, warm,
                  &stats);
  EXPECT_TRUE(stats.warm_used);
  EXPECT_EQ(stats.max_groups, n);
  EXPECT_LT(stats.groups_certified, n)
      << "bound never pruned anything — warm start degenerated to cold";
  // And the certified result still matches the cold sweep exactly.
  const teg::ArrayConfig cold = ehtr_search(array, conv, 0);
  ASSERT_EQ(hot, cold);
  EXPECT_EQ(config_power_w(evaluator, conv, hot),
            config_power_w(evaluator, conv, cold));
}

TEST(EhtrWarm, DegenerateFieldsDisableWarmButStayIdentical) {
  // Non-finite module states must force the cold path (warm_used = false)
  // and still return exactly what cold search returns.
  const std::size_t n = 24;
  // (Infinity is rejected by Module's validity range at construction; NaN
  // passes the range comparisons and reaches the search as non-finite voc.)
  std::vector<double> dts(n, 20.0);
  dts[5] = std::numeric_limits<double>::quiet_NaN();
  dts[17] = std::numeric_limits<double>::quiet_NaN();
  const teg::TegArray array(kDev, dts);
  const power::Converter conv(kConv);

  const teg::ArrayConfig cold = ehtr_search(array, conv);
  EhtrWarmStart warm;
  warm.enabled = true;
  warm.incumbent_groups = 4;
  warm.width = 2;
  EhtrSearchStats stats;
  const teg::ArrayConfig hot =
      ehtr_search(array, conv, 1, PartitionDp::kDivideAndConquer, 0, warm,
                  &stats);
  ASSERT_EQ(hot, cold);
  EXPECT_FALSE(stats.warm_used);
  EXPECT_EQ(stats.groups_certified, stats.max_groups);
}

TEST(EhtrWarm, ControllerDecisionStreamIsBitIdentical) {
  // End-to-end: a warm EhtrReconfigurer must emit the exact decision stream
  // (configs, invocation flags, energies) of a cold one, with the incumbent
  // threading through consecutive actuations as the temperature drifts.
  const std::size_t n = 64;
  const power::Converter conv(kConv);
  EhtrReconfigurer cold(kDev, kConv, 0.5, 1, 0, /*warm_start=*/false);
  EhtrReconfigurer hot(kDev, kConv, 0.5, 1, 0, /*warm_start=*/true,
                       /*warm_width=*/8);
  EXPECT_EQ(hot.algorithm_cost().budget_multiplier,
            cold.algorithm_cost().budget_multiplier);

  util::Rng rng(11);
  for (int step = 0; step < 10; ++step) {
    const std::vector<double> dts = drifting_field(rng, n, step);
    const double t = 0.5 * step;
    const UpdateResult rc = cold.update(t, dts, 25.0);
    const UpdateResult rh = hot.update(t, dts, 25.0);
    ASSERT_EQ(rh.config, rc.config) << "step " << step;
    EXPECT_EQ(rh.invoked, rc.invoked);
    EXPECT_EQ(rh.switched, rc.switched);
    EXPECT_EQ(rh.actuate, rc.actuate);
    const teg::TegArray array(kDev, dts);
    const teg::ArrayEvaluator evaluator(array);
    EXPECT_EQ(config_power_w(evaluator, conv, rh.config),
              config_power_w(evaluator, conv, rc.config));
  }
}

// ---------------------------------------------------------- SIMD kernels

/// Random strictly increasing group starts beginning at 0.
std::vector<std::size_t> random_starts(util::Rng& rng, std::size_t n,
                                       double density) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 1; i < n; ++i) {
    if (rng.bernoulli(density)) starts.push_back(i);
  }
  return starts;
}

TEST(ArrayEvaluatorKernels, SimdMatchesScalarBitwise) {
  if (!teg::ArrayEvaluator::simd_available()) {
    GTEST_SKIP() << "host CPU lacks the SIMD ISA; scalar-only build path";
  }
  util::Rng rng(42);
  for (const std::size_t n : {std::size_t{64}, std::size_t{1024},
                              std::size_t{10000}}) {
    std::vector<double> dts(n);
    for (std::size_t i = 0; i < n; ++i) dts[i] = rng.uniform(2.0, 45.0);
    const teg::TegArray array(kDev, dts);
    teg::ArrayEvaluator ev(array);

    std::vector<std::vector<std::size_t>> cases;
    cases.push_back({0});  // one big parallel group
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    cases.push_back(all);  // all-series: n singleton groups
    for (int trial = 0; trial < 12; ++trial) {
      cases.push_back(random_starts(rng, n, rng.uniform(0.02, 0.98)));
    }

    for (const std::vector<std::size_t>& starts : cases) {
      ev.set_kernel(teg::ScoringKernel::kScalar);
      const teg::LinearSource a = ev.string_equivalent(starts);
      ev.set_kernel(teg::ScoringKernel::kSimd);
      const teg::LinearSource b = ev.string_equivalent(starts);
      ev.set_kernel(teg::ScoringKernel::kAuto);
      const teg::LinearSource c = ev.string_equivalent(starts);
      EXPECT_EQ(a.voc_v, b.voc_v) << "n=" << n << " groups=" << starts.size();
      EXPECT_EQ(a.r_ohm, b.r_ohm) << "n=" << n << " groups=" << starts.size();
      EXPECT_EQ(a.voc_v, c.voc_v);
      EXPECT_EQ(a.r_ohm, c.r_ohm);
    }
  }
}

TEST(ArrayEvaluatorKernels, KernelSelectionContract) {
  std::vector<double> dts(16, 20.0);
  const teg::TegArray array(kDev, dts);
  teg::ArrayEvaluator ev(array);
  EXPECT_EQ(ev.kernel(), teg::ScoringKernel::kAuto);
  ev.set_kernel(teg::ScoringKernel::kScalar);
  EXPECT_EQ(ev.kernel(), teg::ScoringKernel::kScalar);
  if (teg::ArrayEvaluator::simd_available()) {
    EXPECT_NO_THROW(ev.set_kernel(teg::ScoringKernel::kSimd));
    EXPECT_EQ(ev.kernel(), teg::ScoringKernel::kSimd);
  } else {
    EXPECT_THROW(ev.set_kernel(teg::ScoringKernel::kSimd),
                 std::invalid_argument);
    EXPECT_EQ(ev.kernel(), teg::ScoringKernel::kScalar);  // unchanged
  }
  EXPECT_NO_THROW(ev.set_kernel(teg::ScoringKernel::kAuto));
}

TEST(ArrayEvaluatorKernels, KernelChoiceDoesNotMoveEhtrDecisions) {
  // Belt and braces on top of bitwise port-model identity: the full search
  // built over the evaluator lands on the same config under every kernel
  // (ehtr_search constructs its own evaluator with kAuto, so this pins the
  // dispatch default against the scalar oracle via config scoring).
  const std::size_t n = 96;
  util::Rng rng(9);
  const teg::TegArray array(kDev, drifting_field(rng, n, 0));
  const power::Converter conv(kConv);
  const teg::ArrayConfig chosen = ehtr_search(array, conv);
  teg::ArrayEvaluator ev(array);
  ev.set_kernel(teg::ScoringKernel::kScalar);
  const double scalar_power = config_power_w(ev, conv, chosen);
  teg::ArrayEvaluator ev2(array);  // kAuto
  EXPECT_EQ(config_power_w(ev2, conv, chosen), scalar_power);
}

}  // namespace
}  // namespace tegrec::core
