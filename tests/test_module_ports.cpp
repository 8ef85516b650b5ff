// The one dT -> ports path: teg::module_ports + ArrayEvaluator::assign
// must reproduce TegArray + ArrayEvaluator(const TegArray&) bit for bit —
// every port, P_ideal and the port model of any configuration — and must
// reject bad input with the exception type and message TegArray raises.
// The controllers and the stepper rely on this to drop the per-step
// TegArray build without moving a decision or power bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "teg/array.hpp"
#include "teg/array_evaluator.hpp"
#include "teg/config.hpp"
#include "util/rng.hpp"

namespace tegrec::teg {
namespace {

const DeviceParams kDev = tgm_199_1_4_0_8();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_port(const LinearSource& got, const LinearSource& want,
                      const std::string& what) {
  EXPECT_EQ(bits(got.voc_v), bits(want.voc_v)) << what;
  EXPECT_EQ(bits(got.r_ohm), bits(want.r_ohm)) << what;
}

ArrayConfig random_config(util::Rng& rng, std::size_t n) {
  const double p_boundary = rng.uniform(0.0, 1.0);
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 1; i < n; ++i) {
    if (rng.bernoulli(p_boundary)) starts.push_back(i);
  }
  return ArrayConfig(std::move(starts), n);
}

/// dT in [0, max] with exact zeros and exact maxima mixed in.
std::vector<double> random_delta_t(util::Rng& rng, std::size_t n) {
  std::vector<double> out(n);
  for (double& dt : out) {
    const int kind = rng.uniform_int(0, 5);
    dt = kind == 0   ? 0.0
         : kind == 1 ? kDev.max_delta_t_k
                     : rng.uniform(0.0, kDev.max_delta_t_k);
  }
  return out;
}

struct Thrown {
  std::string type;
  std::string what;
  bool operator==(const Thrown&) const = default;
};

template <typename F>
std::optional<Thrown> thrown(F f) {
  try {
    f();
  } catch (const std::exception& e) {
    return Thrown{typeid(e).name(), e.what()};
  }
  return std::nullopt;
}

/// Runs both paths on one input; when neither throws, compares every port,
/// P_ideal, the total conductance and a few random configurations' ports.
void expect_paths_agree(util::Rng& rng, const DeviceParams& device,
                        const std::vector<double>& delta_t, double ambient_c,
                        std::vector<LinearSource>& ports,
                        ArrayEvaluator& evaluator) {
  const std::optional<Thrown> array_error =
      thrown([&] { (void)TegArray(device, delta_t, ambient_c); });
  const std::optional<Thrown> ports_error =
      thrown([&] { module_ports(device, delta_t, ambient_c, ports); });
  ASSERT_EQ(array_error.has_value(), ports_error.has_value())
      << "ambient " << ambient_c << ": only one path threw";
  if (array_error) {
    EXPECT_EQ(*ports_error, *array_error);
    return;
  }
  const TegArray array(device, delta_t, ambient_c);
  const ArrayEvaluator reference(array);
  evaluator.assign(ports);
  ASSERT_EQ(ports.size(), array.size());
  ASSERT_EQ(evaluator.size(), reference.size());
  for (std::size_t i = 0; i < ports.size(); ++i) {
    expect_same_port(ports[i], array.module(i).port(),
                     "port " + std::to_string(i));
  }
  EXPECT_EQ(bits(evaluator.ideal_power_w()), bits(reference.ideal_power_w()));
  EXPECT_EQ(bits(ArrayEvaluator(ports).ideal_power_w()),
            bits(reference.ideal_power_w()));
  for (int k = 0; k < 8; ++k) {
    const ArrayConfig config = random_config(rng, ports.size());
    expect_same_port(evaluator.string_equivalent(config),
                     reference.string_equivalent(config),
                     testing::PrintToString(config.group_starts()));
  }
}

TEST(ModulePorts, MatchTegArrayBitForBitAcrossAmbientsAndSizes) {
  util::Rng rng(1000);
  std::vector<LinearSource> ports;
  ArrayEvaluator evaluator;  // reused across sizes, large to small and back
  for (std::size_t size : {1000u, 1u, 7u, 64u, 16u, 1000u}) {
    for (double ambient = -40.0; ambient <= 120.0; ambient += 16.0) {
      SCOPED_TRACE("N " + std::to_string(size) + ", ambient " +
                   std::to_string(ambient));
      expect_paths_agree(rng, kDev, random_delta_t(rng, size), ambient, ports,
                         evaluator);
      // Odd ambients, where ambient + dT - ambient need not round back to
      // dT (so a dT at the limit may land just past it, on both paths).
      expect_paths_agree(rng, kDev, random_delta_t(rng, size),
                         ambient + rng.uniform(0.0, 1.0), ports, evaluator);
    }
  }
}

TEST(ModulePorts, ColdAndLimitArrays) {
  util::Rng rng(3);
  std::vector<LinearSource> ports;
  ArrayEvaluator evaluator;
  for (double ambient : {-40.0, 0.0, 25.0, 120.0}) {
    expect_paths_agree(rng, kDev, std::vector<double>(16, 0.0), ambient, ports,
                       evaluator);
    expect_paths_agree(rng, kDev, std::vector<double>(16, kDev.max_delta_t_k),
                       ambient, ports, evaluator);
  }
}

TEST(ModulePorts, RejectBadInputLikeTegArray) {
  util::Rng rng(5);
  std::vector<LinearSource> ports;
  ArrayEvaluator evaluator;
  std::vector<double> dts(8, 20.0);

  dts[3] = -0.5;  // negative dT
  expect_paths_agree(rng, kDev, dts, 25.0, ports, evaluator);
  dts[3] = kDev.max_delta_t_k + 1.0;  // beyond the validity range
  expect_paths_agree(rng, kDev, dts, 25.0, ports, evaluator);
  dts[3] = 20.0;
  expect_paths_agree(rng, kDev, {}, 25.0, ports, evaluator);  // empty array

  DeviceParams bad = kDev;
  bad.num_couples = 0;
  expect_paths_agree(rng, bad, dts, 25.0, ports, evaluator);
  bad = kDev;
  bad.internal_resistance_ohm = -1.0;
  expect_paths_agree(rng, bad, dts, 25.0, ports, evaluator);
  bad = kDev;
  bad.max_delta_t_k = 0.0;
  expect_paths_agree(rng, bad, dts, 25.0, ports, evaluator);

  const std::optional<Thrown> negative = thrown([&] {
    module_ports(kDev, std::vector<double>{1.0, -1.0}, 25.0, ports);
  });
  ASSERT_TRUE(negative.has_value());
  EXPECT_EQ(negative->what, "TegArray: negative dT");
}

}  // namespace
}  // namespace tegrec::teg
