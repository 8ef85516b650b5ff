// The library calls perfbench's layer replay (perfbench/src/common.cpp)
// makes, in the exact shapes it makes them.  perfbench is built from its
// own CMake package, so without this test an API change that breaks it
// shows only when the benchmark itself is built.  Each shape must compile
// and agree bit for bit with the port-span API it converts to:
//   TegArray(device, dts, ambient)           -> teg::module_ports
//   ArrayEvaluator(array)                    -> ArrayEvaluator(ports)
//   inor_search(array, conv)                 -> the scratch overload
//   ehtr_search(array, conv, 1, kDivideAndConquer, max_groups, warm, &stats)
//                                            -> ehtr_search(ports, ...)
//   array.module_mpp_currents()              -> ports[i].mpp_current_a()
//   ArrayEvaluator::simd_available()         -> printed as a host fact only
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/ehtr.hpp"
#include "core/inor.hpp"
#include "core/objective.hpp"
#include "power/converter.hpp"
#include "teg/array.hpp"
#include "teg/array_evaluator.hpp"
#include "teg/config.hpp"
#include "util/rng.hpp"

namespace tegrec {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(BenchCallSurface, PerfbenchReplayShapesMatchThePortSpanApi) {
  const teg::DeviceParams device = teg::tgm_199_1_4_0_8();
  const power::Converter converter(power::ConverterParams{});
  util::Rng rng(21);
  for (std::size_t n : {1u, 9u, 64u, 300u}) {
    SCOPED_TRACE("N " + std::to_string(n));
    std::vector<double> delta_t(n);
    for (double& dt : delta_t) dt = rng.uniform(2.0, 45.0);
    const double ambient_c = rng.uniform(10.0, 40.0);

    const teg::TegArray array(device, delta_t, ambient_c);
    std::vector<teg::LinearSource> ports;
    teg::module_ports(device, delta_t, ambient_c, ports);
    const std::span<const teg::LinearSource> view = array;
    ASSERT_EQ(view.size(), ports.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits(view[i].voc_v), bits(ports[i].voc_v)) << i;
      EXPECT_EQ(bits(view[i].r_ohm), bits(ports[i].r_ohm)) << i;
    }

    const teg::ArrayEvaluator evaluator(array);
    const teg::ArrayEvaluator from_ports(ports);
    EXPECT_EQ(bits(evaluator.ideal_power_w()), bits(from_ports.ideal_power_w()));
    for (std::size_t groups : {std::size_t{1}, (n + 1) / 2, n}) {
      const teg::ArrayConfig config = teg::ArrayConfig::uniform(n, groups);
      EXPECT_EQ(bits(core::config_power_w(evaluator, converter, config)),
                bits(core::config_power_w(from_ports, converter, config)));
    }

    core::InorScratch scratch;
    const teg::ArrayConfig inor = core::inor_search(array, converter);
    EXPECT_EQ(inor,
              core::inor_search(ports, from_ports, converter, {}, scratch));

    for (const bool warm_enabled : {false, true}) {
      core::EhtrWarmStart warm;
      warm.enabled = warm_enabled;
      warm.incumbent_groups = inor.num_groups();
      warm.width = 4;
      const std::size_t max_groups = n > 1 ? n - 1 : 0;
      core::EhtrSearchStats stats;
      const teg::ArrayConfig found = core::ehtr_search(
          array, converter, 1, core::PartitionDp::kDivideAndConquer,
          max_groups, warm, &stats);
      core::EhtrSearchStats span_stats;
      EXPECT_EQ(found, core::ehtr_search(
                           std::span<const teg::LinearSource>(ports), converter,
                           1, core::PartitionDp::kDivideAndConquer, max_groups,
                           warm, &span_stats));
      EXPECT_EQ(stats.max_groups, span_stats.max_groups);
      EXPECT_EQ(stats.groups_certified, span_stats.groups_certified);
      EXPECT_EQ(stats.warm_used, span_stats.warm_used);
    }

    const std::vector<double> impp = array.module_mpp_currents();
    ASSERT_EQ(impp.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits(impp[i]), bits(ports[i].mpp_current_a())) << i;
    }
  }
}

TEST(BenchCallSurface, SimdAvailableStaysAHostFact) {
  // perfbench's host-facts line is the only caller; no scoring path reads
  // it, so all it owes is a stable answer per process.
  const bool simd = teg::ArrayEvaluator::simd_available();
  EXPECT_EQ(simd, teg::ArrayEvaluator::simd_available());
}

}  // namespace
}  // namespace tegrec
