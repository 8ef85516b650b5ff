#include "core/dnor.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "predict/bpnn.hpp"
#include "predict/svr.hpp"

namespace tegrec::core {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

std::vector<double> profile(double entrance_dt, std::size_t n = 20) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = entrance_dt * std::exp(-1.8 * static_cast<double>(i) /
                                    static_cast<double>(n));
  }
  return out;
}

/// Decisions and switches, counted from the results the controller returns
/// (the stepper's num_invocations and num_switch_events).
struct Tally {
  std::size_t decisions = 0;
  std::size_t switches = 0;
  void add(const UpdateResult& r) {
    decisions += r.invoked ? 1 : 0;
    switches += r.switched ? 1 : 0;
  }
};

DnorParams fast_params() {
  DnorParams p;
  p.control_period_s = 0.5;
  p.tp_s = 2.0;
  p.history_window = 10;
  return p;
}

TEST(Dnor, FirstUpdateAdoptsConfiguration) {
  DnorReconfigurer rec(kDev, kConv, fast_params());
  const UpdateResult r = rec.update(0.0, profile(30.0), 25.0);
  EXPECT_TRUE(r.invoked);
  EXPECT_TRUE(r.switched);
  EXPECT_TRUE(r.actuate);
  EXPECT_GE(r.config.num_groups(), 1u);
}

TEST(Dnor, HoldsBetweenDecisions) {
  DnorReconfigurer rec(kDev, kConv, fast_params());
  const UpdateResult r0 = rec.update(0.0, profile(30.0), 25.0);
  // tp + 1 = 3 s: updates at 0.5..2.5 s must hold.
  for (double t = 0.5; t < 3.0; t += 0.5) {
    const UpdateResult r = rec.update(t, profile(30.0 + t), 25.0);
    EXPECT_FALSE(r.invoked) << "t=" << t;
    EXPECT_FALSE(r.actuate) << "t=" << t;
    EXPECT_EQ(r.config, r0.config) << "t=" << t;
  }
  EXPECT_TRUE(rec.update(3.0, profile(31.5), 25.0).invoked);
}

TEST(Dnor, StaticTemperaturesNeverReswitch) {
  // With a frozen distribution the new config equals the old one; DNOR must
  // not actuate after installation.
  DnorReconfigurer rec(kDev, kConv, fast_params());
  const auto dts = profile(32.0);
  Tally tally;
  tally.add(rec.update(0.0, dts, 25.0));
  for (double t = 0.5; t < 30.0; t += 0.5) {
    const UpdateResult r = rec.update(t, dts, 25.0);
    tally.add(r);
    EXPECT_FALSE(r.actuate) << "t=" << t;
  }
  EXPECT_EQ(tally.switches, 1u);  // installation only
  EXPECT_GT(tally.decisions, 5u);
}

TEST(Dnor, LargeStepChangeForcesSwitch) {
  // Halving every temperature reshapes the optimal grouping: once history
  // reflects the new regime the predicted gain must exceed the overhead.
  DnorReconfigurer rec(kDev, kConv, fast_params());
  Tally tally;
  double t = 0.0;
  for (; t < 6.0; t += 0.5) tally.add(rec.update(t, profile(34.0), 25.0));
  const std::size_t before = tally.switches;
  for (; t < 20.0; t += 0.5) tally.add(rec.update(t, profile(12.0), 25.0));
  EXPECT_GT(tally.switches, before);
}

TEST(Dnor, SwitchCountFarBelowDecisionCount) {
  // Slow drift: DNOR should decide often but actuate rarely (the 100x
  // overhead-reduction mechanism).
  DnorReconfigurer rec(kDev, kConv, fast_params());
  Tally tally;
  for (double t = 0.0; t < 120.0; t += 0.5) {
    tally.add(rec.update(t, profile(30.0 + 0.5 * std::sin(0.05 * t)), 25.0));
  }
  EXPECT_GT(tally.decisions, 30u);
  EXPECT_LT(tally.switches, tally.decisions / 3);
}

TEST(Dnor, WorksWithBpnnPredictor) {
  DnorParams p = fast_params();
  predict::BpnnParams nn;
  nn.epochs = 5;
  DnorReconfigurer rec(kDev, kConv, p,
                       std::make_unique<predict::BpnnPredictor>(nn));
  for (double t = 0.0; t < 15.0; t += 0.5) {
    EXPECT_NO_THROW(rec.update(t, profile(30.0 + 0.2 * t), 25.0));
  }
}

TEST(Dnor, WorksWithSvrPredictor) {
  DnorParams p = fast_params();
  predict::SvrParams svr;
  svr.iterations = 50;
  DnorReconfigurer rec(kDev, kConv, p,
                       std::make_unique<predict::SvrPredictor>(svr));
  for (double t = 0.0; t < 15.0; t += 0.5) {
    EXPECT_NO_THROW(rec.update(t, profile(30.0 - 0.1 * t), 25.0));
  }
}

TEST(Dnor, ResetReinstalls) {
  DnorReconfigurer rec(kDev, kConv, fast_params());
  for (double t = 0.0; t < 10.0; t += 0.5) rec.update(t, profile(30.0), 25.0);
  rec.reset();
  // A reset controller holds nothing: its first update installs afresh.
  const UpdateResult r = rec.update(0.0, profile(30.0), 25.0);
  EXPECT_TRUE(r.invoked);
  EXPECT_TRUE(r.switched);
  EXPECT_TRUE(r.actuate);
}

// Writers never emit an empty list field, so a stray comma in a state blob
// is corruption: the restore throws the documented std::runtime_error
// instead of reading "1,2," as [1, 2] (which would re-encode differently).
TEST(Dnor, StateBlobRejectsEmptyListFields) {
  DnorReconfigurer rec(kDev, kConv, fast_params());
  for (double t = 0.0; t < 5.0; t += 0.5) {
    rec.update(t, profile(30.0 + t), 25.0);
  }
  const std::string blob = rec.checkpoint_state();
  DnorReconfigurer restored(kDev, kConv, fast_params());
  restored.restore_checkpoint_state(blob);
  EXPECT_EQ(restored.checkpoint_state(), blob);

  const auto with_comma_after = [&](const std::string& key) {
    const std::size_t at = blob.find("\n" + key + " = ");
    EXPECT_NE(at, std::string::npos) << key;
    std::string bad = blob;
    bad.insert(bad.find('\n', at + 1), ",");
    return bad;
  };
  for (const std::string key : {"row", "config_starts"}) {
    DnorReconfigurer target(kDev, kConv, fast_params());
    EXPECT_THROW(target.restore_checkpoint_state(with_comma_after(key)),
                 std::runtime_error)
        << key;
  }
  std::string leading = blob;
  const std::size_t row = leading.find("\nrow = ");
  ASSERT_NE(row, std::string::npos);
  leading.insert(row + 7, ",");
  EXPECT_THROW(restored.restore_checkpoint_state(leading), std::runtime_error);
  EXPECT_EQ(restored.checkpoint_state(), blob);  // nothing half-applied
}

// The blob's tag guards its format: a blob from before the counters left
// (tag dnor-v1, clock named next_decision_time_s) is refused by name.
TEST(Dnor, StateBlobRejectsTheV1Format) {
  DnorReconfigurer rec(kDev, kConv, fast_params());
  for (double t = 0.0; t < 5.0; t += 0.5) rec.update(t, profile(30.0), 25.0);
  std::string v1 = rec.checkpoint_state();
  const auto swap = [&](const std::string& from, const std::string& to) {
    const std::size_t at = v1.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    v1.replace(at, from.size(), to);
  };
  swap("state = dnor-v2\n", "state = dnor-v1\n");
  swap("next_run_time_s = ", "next_decision_time_s = ");
  swap("has_history = ", "decisions = 1\nswitches = 1\nhas_history = ");
  DnorReconfigurer target(kDev, kConv, fast_params());
  try {
    target.restore_checkpoint_state(v1);
    FAIL() << "a dnor-v1 blob restored";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("dnor-v2"), std::string::npos)
        << e.what();
  }
}

TEST(Dnor, ParameterValidation) {
  DnorParams p = fast_params();
  p.control_period_s = 0.0;
  EXPECT_THROW(DnorReconfigurer(kDev, kConv, p), std::invalid_argument);
  p = fast_params();
  p.tp_s = 0.0;
  EXPECT_THROW(DnorReconfigurer(kDev, kConv, p), std::invalid_argument);
  p = fast_params();
  p.history_window = 3;  // too small for the default MLR lag order
  EXPECT_THROW(DnorReconfigurer(kDev, kConv, p), std::invalid_argument);
}

TEST(Dnor, HigherOverheadMeansFewerSwitches) {
  DnorParams cheap = fast_params();
  cheap.overhead.per_switch_energy_j = 0.0;
  cheap.overhead.mppt_settle_s = 0.0;
  cheap.overhead.sensing_delay_s = 0.0;
  DnorParams costly = fast_params();
  costly.overhead.per_switch_energy_j = 0.5;
  costly.overhead.mppt_settle_s = 0.5;

  DnorReconfigurer rec_cheap(kDev, kConv, cheap);
  DnorReconfigurer rec_costly(kDev, kConv, costly);
  Tally tally_cheap;
  Tally tally_costly;
  for (double t = 0.0; t < 100.0; t += 0.5) {
    const auto dts = profile(30.0 + 1.5 * std::sin(0.08 * t));
    tally_cheap.add(rec_cheap.update(t, dts, 25.0));
    tally_costly.add(rec_costly.update(t, dts, 25.0));
  }
  EXPECT_LE(tally_costly.switches, tally_cheap.switches);
}

}  // namespace
}  // namespace tegrec::core
