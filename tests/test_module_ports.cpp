// The one dT -> ports path, teg::module_ports, against an independent
// oracle: every port must equal Module::from_delta_t(device, dT,
// ambient).port() bit for bit, a TegArray (built by module_ports) must hold
// the same ports and P_ideal, and an evaluator re-assigned across sizes
// must equal one built fresh from the oracle's ports.  Bad input is
// rejected in a fixed order with fixed messages: a bad device, an empty
// array, then per module a negative dT or a dT beyond the device's range.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "teg/array.hpp"
#include "teg/array_evaluator.hpp"
#include "teg/config.hpp"
#include "teg/module.hpp"
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

/// Runs module_ports and the per-module oracle on one input.  When the
/// oracle throws (a dT that lands past the limit once hot - ambient is
/// rounded), module_ports and TegArray must throw the same; otherwise
/// every port, P_ideal and a few random configurations' ports must match.
void expect_matches_modules(util::Rng& rng, const std::vector<double>& delta_t,
                            double ambient_c, std::vector<LinearSource>& ports,
                            ArrayEvaluator& evaluator) {
  std::vector<LinearSource> want;
  const std::optional<Thrown> oracle_error = thrown([&] {
    for (double dt : delta_t) {
      want.push_back(Module::from_delta_t(kDev, dt, ambient_c).port());
    }
  });
  const std::optional<Thrown> ports_error =
      thrown([&] { module_ports(kDev, delta_t, ambient_c, ports); });
  const std::optional<Thrown> array_error =
      thrown([&] { (void)TegArray(kDev, delta_t, ambient_c); });
  ASSERT_EQ(oracle_error.has_value(), ports_error.has_value())
      << "ambient " << ambient_c << ": only one side threw";
  ASSERT_EQ(oracle_error.has_value(), array_error.has_value());
  if (oracle_error) {
    EXPECT_EQ(*ports_error, *oracle_error);
    EXPECT_EQ(*array_error, *oracle_error);
    return;
  }
  const TegArray array(kDev, delta_t, ambient_c);
  const std::span<const LinearSource> array_ports = array;
  ASSERT_EQ(ports.size(), want.size());
  ASSERT_EQ(array_ports.size(), want.size());
  double ideal_w = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_same_port(ports[i], want[i], "port " + std::to_string(i));
    expect_same_port(array_ports[i], want[i],
                     "TegArray port " + std::to_string(i));
    ideal_w += want[i].mpp_power_w();
  }
  evaluator.assign(ports);
  const ArrayEvaluator fresh(want);
  EXPECT_EQ(bits(evaluator.ideal_power_w()), bits(ideal_w));
  EXPECT_EQ(bits(fresh.ideal_power_w()), bits(ideal_w));
  EXPECT_EQ(bits(array.ideal_power_w()), bits(ideal_w));
  for (int k = 0; k < 8; ++k) {
    const ArrayConfig config = random_config(rng, want.size());
    expect_same_port(evaluator.string_equivalent(config),
                     fresh.string_equivalent(config),
                     testing::PrintToString(config.group_starts()));
  }
}

TEST(ModulePorts, MatchModulesBitForBitAcrossAmbientsAndSizes) {
  util::Rng rng(1000);
  std::vector<LinearSource> ports;
  ArrayEvaluator evaluator;  // reused across sizes, large to small and back
  for (std::size_t size : {1000u, 1u, 7u, 64u, 16u, 1000u}) {
    for (double ambient = -40.0; ambient <= 120.0; ambient += 16.0) {
      SCOPED_TRACE("N " + std::to_string(size) + ", ambient " +
                   std::to_string(ambient));
      expect_matches_modules(rng, random_delta_t(rng, size), ambient, ports,
                             evaluator);
      // Odd ambients, where ambient + dT - ambient need not round back to
      // dT (so a dT at the limit may land just past it, on every side).
      expect_matches_modules(rng, random_delta_t(rng, size),
                             ambient + rng.uniform(0.0, 1.0), ports, evaluator);
    }
  }
}

TEST(ModulePorts, ColdAndLimitArrays) {
  util::Rng rng(3);
  std::vector<LinearSource> ports;
  ArrayEvaluator evaluator;
  for (double ambient : {-40.0, 0.0, 25.0, 120.0}) {
    expect_matches_modules(rng, std::vector<double>(16, 0.0), ambient, ports,
                           evaluator);
    expect_matches_modules(rng, std::vector<double>(16, kDev.max_delta_t_k),
                           ambient, ports, evaluator);
  }
}

/// The message of the std::invalid_argument module_ports rejects one input
/// with ("no exception" if it accepts it); TegArray must throw the same.
std::string rejection_of(const DeviceParams& device,
                         const std::vector<double>& delta_t) {
  std::vector<LinearSource> ports;
  const std::optional<Thrown> from_ports =
      thrown([&] { module_ports(device, delta_t, 25.0, ports); });
  const std::optional<Thrown> from_array =
      thrown([&] { (void)TegArray(device, delta_t, 25.0); });
  EXPECT_EQ(from_ports.has_value(), from_array.has_value());
  if (!from_ports || !from_array) return "no exception";
  EXPECT_EQ(*from_array, *from_ports);
  EXPECT_EQ(from_ports->type, typeid(std::invalid_argument).name());
  return from_ports->what;
}

TEST(ModulePorts, RejectBadInputInOrder) {
  const double beyond = kDev.max_delta_t_k + 1.0;
  DeviceParams bad = kDev;
  bad.num_couples = 0;
  // A bad device is reported before an empty array or a bad dT.
  EXPECT_EQ(rejection_of(bad, {}), "DeviceParams: num_couples <= 0");
  EXPECT_EQ(rejection_of(bad, {-1.0, beyond}),
            "DeviceParams: num_couples <= 0");
  bad = kDev;
  bad.internal_resistance_ohm = -1.0;
  EXPECT_EQ(rejection_of(bad, {}), "DeviceParams: internal resistance <= 0");
  bad = kDev;
  bad.max_delta_t_k = 0.0;
  EXPECT_EQ(rejection_of(bad, {5.0}), "DeviceParams: max dT <= 0");

  // Then an empty array.
  EXPECT_EQ(rejection_of(kDev, {}), "TegArray: empty array");

  // Then each module in position order: the first bad one decides.
  EXPECT_EQ(rejection_of(kDev, {20.0, -0.5, beyond}), "TegArray: negative dT");
  EXPECT_EQ(rejection_of(kDev, {20.0, beyond, -0.5}),
            "Module: dT exceeds device validity range");
  EXPECT_EQ(rejection_of(kDev, {beyond}),
            "Module: dT exceeds device validity range");
  EXPECT_EQ(rejection_of(kDev, {20.0, kDev.max_delta_t_k, 0.0}),
            "no exception");
}

}  // namespace
}  // namespace tegrec::teg
