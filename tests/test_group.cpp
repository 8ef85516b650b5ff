// A parallel group is the Norton sum of its members' ports (in_parallel).
#include <gtest/gtest.h>

#include <vector>

#include "teg/linear_source.hpp"
#include "teg/module.hpp"

namespace tegrec::teg {
namespace {

const DeviceParams kDev = tgm_199_1_4_0_8();

std::vector<LinearSource> ports_at(std::initializer_list<double> dts) {
  std::vector<LinearSource> out;
  for (double dt : dts) out.push_back(Module::from_delta_t(kDev, dt).port());
  return out;
}

double sum_mpp_power(const std::vector<LinearSource>& sources) {
  double total = 0.0;
  for (const LinearSource& s : sources) total += s.mpp_power_w();
  return total;
}

TEST(InParallel, EmptyThrows) {
  EXPECT_THROW(in_parallel({}), std::invalid_argument);
}

TEST(InParallel, IdenticalMembersEquivalent) {
  // k identical modules in parallel: Voc unchanged, R divided by k.
  const auto members = ports_at({30.0, 30.0, 30.0});
  const LinearSource g = in_parallel(members);
  EXPECT_NEAR(g.voc_v, members[0].voc_v, 1e-12);
  EXPECT_NEAR(g.r_ohm, members[0].r_ohm / 3.0, 1e-12);
  // No mismatch: group MPP equals the sum of member MPPs.
  EXPECT_NEAR(g.mpp_power_w(), sum_mpp_power(members), 1e-9);
}

TEST(InParallel, NortonEquivalent) {
  // Voc is the conductance-weighted mean of the members' Voc.
  const auto members = ports_at({20.0, 40.0});
  const LinearSource g = in_parallel(members);
  const double g1 = 1.0 / members[0].r_ohm;
  const double g2 = 1.0 / members[1].r_ohm;
  EXPECT_NEAR(g.r_ohm, 1.0 / (g1 + g2), 1e-12);
  EXPECT_NEAR(g.voc_v, (members[0].voc_v * g1 + members[1].voc_v * g2) / (g1 + g2),
              1e-12);
}

TEST(InParallel, SummationOrderIsMemberOrder) {
  // 1/r and voc/r accumulate in member order, then r = 1/g, voc = norton*r.
  const auto members = ports_at({35.0, 12.5, 27.0, 4.0});
  double g = 0.0;
  double norton = 0.0;
  for (const LinearSource& m : members) {
    g += 1.0 / m.r_ohm;
    norton += m.voc_v / m.r_ohm;
  }
  const LinearSource out = in_parallel(members);
  EXPECT_EQ(out.r_ohm, 1.0 / g);
  EXPECT_EQ(out.voc_v, norton * (1.0 / g));
}

TEST(InParallel, MemberCurrentsSumToGroupCurrent) {
  const auto members = ports_at({35.0, 25.0, 15.0});
  const LinearSource g = in_parallel(members);
  const double v = 0.6;
  double total = 0.0;
  for (const LinearSource& m : members) total += m.current_at_voltage(v);
  EXPECT_NEAR(total, g.current_at_voltage(v), 1e-9);
}

TEST(InParallel, ColdMemberBackFedAtHighVoltage) {
  // A much colder module is driven backwards near the hot module's MPP
  // voltage — the loss mechanism of Fig. 3(a).
  const auto members = ports_at({45.0, 5.0});
  const double v = members[0].mpp_voltage_v();
  EXPECT_GT(members[0].current_at_voltage(v), 0.0);
  EXPECT_LT(members[1].current_at_voltage(v), 0.0);
}

TEST(InParallel, PowerConsistencyVoltageVsCurrent) {
  const LinearSource g = in_parallel(ports_at({30.0, 20.0}));
  const double i = 0.8;
  const double v = g.voltage_at_current(i);
  EXPECT_NEAR(v * i, g.power_at_voltage(v), 1e-9);
}

TEST(InParallel, MismatchLosesPowerVsMemberMpps) {
  // Fig. 3(a): parallel modules at different dT cannot all sit at MPP.
  const auto members = ports_at({40.0, 15.0});
  EXPECT_LT(in_parallel(members).mpp_power_w(), sum_mpp_power(members) - 1e-6);
  // Property over a spread sweep: never above the sum, equal when matched.
  for (double spread : {0.0, 5.0, 10.0, 20.0, 35.0}) {
    const auto pair = ports_at({40.0, 40.0 - spread});
    EXPECT_LE(in_parallel(pair).mpp_power_w(), sum_mpp_power(pair) + 1e-9)
        << "spread " << spread;
  }
}

}  // namespace
}  // namespace tegrec::teg
