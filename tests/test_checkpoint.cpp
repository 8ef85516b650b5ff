// The checkpoint codec: versioned, fingerprint-stamped, and loud.  A
// checkpoint must round-trip the full stepper state bit-exactly, refuse a
// stamp from any other configuration, and reject corrupt or truncated
// artifacts with an exception — never a silent fresh start.  The injected
// fault matrix (stream.checkpoint.write_fail/.torn/.crash) exercises the
// failure modes an operator will actually hit.
#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/stepper.hpp"
#include "sim/stream_server.hpp"
#include "thermal/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/fault.hpp"

namespace tegrec::sim {
namespace {

thermal::TemperatureTrace test_trace() {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = 12;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 12.0, 32.0, 0.0}};
  config.seed = 9;
  return thermal::generate_trace(config);
}

StreamConfig test_config(const thermal::TemperatureTrace& trace) {
  StreamConfig config;
  config.scheme = StreamScheme::kInor;
  config.dt_s = trace.dt_s();
  config.num_modules = trace.num_modules();
  config.sim.num_threads = 1;
  return config;
}

/// A stepper advanced `steps` samples into the test trace.
struct SteppedRun {
  std::unique_ptr<core::Reconfigurer> controller;
  std::unique_ptr<SimStepper> stepper;
};

SteppedRun make_run(const StreamConfig& config, const thermal::TemperatureTrace& trace,
             std::size_t steps) {
  SteppedRun run;
  run.controller = make_stream_controller(config);
  run.stepper = std::make_unique<SimStepper>(*run.controller, config.dt_s,
                                             config.num_modules, config.sim);
  for (std::size_t t = 0; t < steps; ++t) {
    TraceSample sample;
    sample.time_s = static_cast<double>(t) * trace.dt_s();
    sample.module_temps_c = trace.step_temperatures(t);
    sample.ambient_c = trace.ambient_c(t);
    run.stepper->step(sample);
  }
  return run;
}

void expect_states_equal(const StepperState& a, const StepperState& b) {
  EXPECT_EQ(a.steps_consumed, b.steps_consumed);
  EXPECT_EQ(a.total_compute_s, b.total_compute_s);
  EXPECT_EQ(a.has_fabric, b.has_fabric);
  EXPECT_EQ(a.fabric_group_starts, b.fabric_group_starts);
  EXPECT_EQ(a.battery_soc, b.battery_soc);
  EXPECT_EQ(a.battery_energy_j, b.battery_energy_j);
  EXPECT_EQ(a.controller_state, b.controller_state);
  EXPECT_EQ(a.partial.energy_output_j, b.partial.energy_output_j);
  EXPECT_EQ(a.partial.steps.size(), b.partial.steps.size());
}

TEST(Checkpoint, EncodeDecodeRoundTripsBitExactly) {
  const auto trace = test_trace();
  const StreamConfig config = test_config(trace);
  const std::string stamp = stream_config_fingerprint_text(config);
  SteppedRun run = make_run(config, trace, 9);
  const StepperState state = run.stepper->state();

  const std::vector<std::string> log = {R"({"event":"decision","time_s":0})",
                                        R"({"event":"gap","detail":"x"})"};
  const std::string text = encode_checkpoint(state, stamp, log);
  const DecodedCheckpoint decoded = decode_checkpoint(text, stamp);
  expect_states_equal(state, decoded.state);
  EXPECT_EQ(decoded.extra_lines, log);  // byte-preserved, order-preserved

  // The decoded state restores into a fresh run and continues identically.
  SteppedRun resumed = make_run(config, trace, 0);
  resumed.stepper->restore_state(decoded.state);
  SteppedRun reference = make_run(config, trace, 10);
  TraceSample sample;
  sample.time_s = 9 * trace.dt_s();
  sample.module_temps_c = trace.step_temperatures(9);
  sample.ambient_c = trace.ambient_c(9);
  resumed.stepper->step(sample);
  EXPECT_EQ(resumed.stepper->result().energy_output_j,
            reference.stepper->result().energy_output_j);
  EXPECT_EQ(resumed.stepper->result().steps.back().net_power_w,
            reference.stepper->result().steps.back().net_power_w);
}

TEST(Checkpoint, StampMismatchIsRejected) {
  const auto trace = test_trace();
  const StreamConfig config = test_config(trace);
  SteppedRun run = make_run(config, trace, 5);
  const std::string text = encode_checkpoint(
      run.stepper->state(), stream_config_fingerprint_text(config));

  // Any result-affecting field difference must refuse to resume.
  StreamConfig other = config;
  other.control_period_s *= 2.0;
  EXPECT_THROW(
      decode_checkpoint(text, stream_config_fingerprint_text(other)),
      std::runtime_error);
}

TEST(Checkpoint, RejectsNewlinesInExtraLines) {
  const auto trace = test_trace();
  const StreamConfig config = test_config(trace);
  SteppedRun run = make_run(config, trace, 3);
  EXPECT_THROW(encode_checkpoint(run.stepper->state(),
                                 stream_config_fingerprint_text(config),
                                 {"line one\nline two"}),
               std::invalid_argument);
}

TEST(Checkpoint, RejectsCarriageReturnsInExtraLines) {
  // The reader strips a trailing '\r' (CRLF tolerance), so such a line
  // could not come back byte-preserved: refuse it at encode time.
  const auto trace = test_trace();
  const StreamConfig config = test_config(trace);
  const std::string stamp = stream_config_fingerprint_text(config);
  SteppedRun run = make_run(config, trace, 3);
  const StepperState state = run.stepper->state();
  EXPECT_THROW(encode_checkpoint(state, stamp, {"line one\r"}),
               std::invalid_argument);
  EXPECT_THROW(encode_checkpoint(state, stamp, {"a\rb"}),
               std::invalid_argument);

  // The incremental encoder checks each newly appended line, and a refused
  // line leaves its cache usable.
  CheckpointEncoder encoder;
  std::vector<std::string> log = {"first"};
  encoder.encode(state, stamp, log);
  log.push_back("second\r");
  EXPECT_THROW(encoder.encode(state, stamp, log), std::invalid_argument);
  log.back() = "second";
  EXPECT_EQ(encoder.encode(state, stamp, log),
            encode_checkpoint(state, stamp, log));
}

TEST(Checkpoint, TruncatedAndCorruptArtifactsAreLoud) {
  const auto trace = test_trace();
  const StreamConfig config = test_config(trace);
  const std::string stamp = stream_config_fingerprint_text(config);
  SteppedRun run = make_run(config, trace, 7);
  const std::string text = encode_checkpoint(run.stepper->state(), stamp);

  EXPECT_THROW(decode_checkpoint("", stamp), std::runtime_error);
  EXPECT_THROW(decode_checkpoint("not a checkpoint\n", stamp),
               std::runtime_error);
  // Every truncation point must throw — the `# end` terminator guarantees
  // even a cleanly-cut tail cannot pass.
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    EXPECT_THROW(decode_checkpoint(text.substr(0, cut), stamp),
                 std::runtime_error)
        << "cut at " << cut;
  }
  // Flipping the internal step count breaks cross-validation.
  std::string inconsistent = text;
  const std::size_t pos = inconsistent.find("steps_consumed = 7");
  ASSERT_NE(pos, std::string::npos);
  inconsistent.replace(pos, 18, "steps_consumed = 6");
  EXPECT_THROW(decode_checkpoint(inconsistent, stamp), std::runtime_error);
}

// A controller blob cut anywhere short of its end — its final newline
// included — is corrupt: the restore throws and leaves the controller as
// it was.
TEST(Checkpoint, EveryProperPrefixOfAControllerBlobIsLoud) {
  const auto trace = test_trace();
  for (const StreamScheme scheme :
       {StreamScheme::kDnor, StreamScheme::kInor, StreamScheme::kEhtr,
        StreamScheme::kBaseline}) {
    StreamConfig config = test_config(trace);
    config.scheme = scheme;
    const SteppedRun source = make_run(config, trace, 20);
    const std::string blob = source.controller->checkpoint_state();
    const SteppedRun target = make_run(config, trace, 3);
    const std::string before = target.controller->checkpoint_state();
    for (std::size_t cut = 0; cut < blob.size(); ++cut) {
      EXPECT_THROW(
          target.controller->restore_checkpoint_state(blob.substr(0, cut)),
          std::runtime_error)
          << stream_scheme_name(scheme) << " cut at " << cut;
    }
    EXPECT_EQ(target.controller->checkpoint_state(), before);
    target.controller->restore_checkpoint_state(blob);
    EXPECT_EQ(target.controller->checkpoint_state(), blob);
  }
}

// The encoder never writes a trailing comma, so a group-start list ending in
// one is corrupt, not the list without it (which would re-encode to
// different bytes).
TEST(Checkpoint, TrailingCommaInFabricStartsIsLoud) {
  const auto trace = test_trace();
  const StreamConfig config = test_config(trace);
  const std::string stamp = stream_config_fingerprint_text(config);
  SteppedRun run = make_run(config, trace, 7);
  const std::string text = encode_checkpoint(run.stepper->state(), stamp);
  ASSERT_FALSE(decode_checkpoint(text, stamp).state.fabric_group_starts.empty());

  const std::size_t key = text.find("fabric_group_starts = ");
  ASSERT_NE(key, std::string::npos);
  std::string trailing = text;
  trailing.insert(trailing.find('\n', key), ",");
  EXPECT_THROW(decode_checkpoint(trailing, stamp), std::runtime_error);
  std::string doubled = text;
  doubled.insert(doubled.find(',', key) + 1, ",");
  EXPECT_THROW(decode_checkpoint(doubled, stamp), std::runtime_error);
}

// ------------------------------------------------------ incremental encoder
//
// CheckpointEncoder keeps the rendered step rows and log lines between
// calls.  Whatever the history does between checkpoints, every encode must
// equal the one-shot encode_checkpoint of the same arguments, byte for byte.

/// A longer DNOR drive, so the controller decides (and the log grows)
/// many times over the run.
thermal::TemperatureTrace dnor_trace() {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = 12;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 80.0, 32.0, 0.0},
                     {thermal::DriveSegment::Kind::kCruise, 40.0, 70.0, 0.0}};
  config.seed = 21;
  return thermal::generate_trace(config);
}

TraceSample sample_at(const thermal::TemperatureTrace& trace, std::size_t t) {
  TraceSample sample;
  sample.time_s = static_cast<double>(t) * trace.dt_s();
  sample.module_temps_c = trace.step_temperatures(t);
  sample.ambient_c = trace.ambient_c(t);
  return sample;
}

/// Steps `run` through samples [from, to), appending a log line per
/// decision plus a status line every fifth step.
void step_with_log(SteppedRun& run, const thermal::TemperatureTrace& trace,
                   std::size_t from, std::size_t to,
                   std::vector<std::string>& log) {
  for (std::size_t t = from; t < to; ++t) {
    const StepRecord rec = run.stepper->step(sample_at(trace, t));
    if (rec.switched) log.push_back("decision at step " + std::to_string(t));
    if (t % 5 == 0) log.push_back("status " + std::to_string(t));
  }
}

TEST(CheckpointEncoder, MatchesOneShotAtEveryCheckpoint) {
  const auto trace = dnor_trace();
  StreamConfig config = test_config(trace);
  config.scheme = StreamScheme::kDnor;
  const std::string stamp = stream_config_fingerprint_text(config);
  for (const std::size_t every : {1u, 7u, 50u}) {
    SteppedRun run = make_run(config, trace, 0);
    ASSERT_TRUE(run.stepper->checkpointable());
    CheckpointEncoder encoder;
    std::vector<std::string> log;
    std::size_t checkpoints = 0;
    std::size_t decisions = 0;
    for (std::size_t t = 0; t < trace.num_steps(); ++t) {
      step_with_log(run, trace, t, t + 1, log);
      decisions += run.stepper->result().steps.back().switched ? 1 : 0;
      if ((t + 1) % every != 0) continue;
      const StepperState state = run.stepper->state();
      ASSERT_EQ(encoder.encode(state, stamp, log),
                encode_checkpoint(state, stamp, log))
          << "every " << every << ", step " << t + 1;
      ++checkpoints;
    }
    EXPECT_EQ(checkpoints, trace.num_steps() / every);
    EXPECT_GT(decisions, 1u);  // the log grew by decisions, not just status
  }
}

TEST(CheckpointEncoder, RebuildsAfterRestoreToShorterSnapshot) {
  const auto trace = dnor_trace();
  StreamConfig config = test_config(trace);
  config.scheme = StreamScheme::kDnor;
  const std::string stamp = stream_config_fingerprint_text(config);
  SteppedRun run = make_run(config, trace, 0);
  CheckpointEncoder encoder;
  std::vector<std::string> log;

  step_with_log(run, trace, 0, 40, log);
  const StepperState early = run.stepper->state();
  const std::vector<std::string> early_log = log;
  step_with_log(run, trace, 40, 90, log);
  const StepperState late = run.stepper->state();
  ASSERT_EQ(encoder.encode(late, stamp, log),
            encode_checkpoint(late, stamp, log));

  // Rewind: both histories are now shorter than the cache.
  run.stepper->restore_state(early);
  log = early_log;
  EXPECT_EQ(encoder.encode(run.stepper->state(), stamp, log),
            encode_checkpoint(early, stamp, log));

  // Continue from the rewound point; the rebuilt cache grows again.
  step_with_log(run, trace, 40, 70, log);
  StepperState resumed = run.stepper->state();
  EXPECT_EQ(encoder.encode(resumed, stamp, log),
            encode_checkpoint(resumed, stamp, log));

  // Same lengths, different last entries: the seam check catches both.
  resumed.partial.steps.back().net_power_w += 1.0;
  log.back() += " (edited)";
  EXPECT_EQ(encoder.encode(resumed, stamp, log),
            encode_checkpoint(resumed, stamp, log));
}

TEST(CheckpointEncoder, NanStepCellsStayEmpty) {
  const auto trace = test_trace();
  const StreamConfig config = test_config(trace);
  const std::string stamp = stream_config_fingerprint_text(config);
  SteppedRun run = make_run(config, trace, 8);
  StepperState state = run.stepper->state();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  state.partial.steps[2].overhead_energy_j = nan;
  state.partial.steps.back().compute_time_s = nan;

  CheckpointEncoder encoder;
  const std::string first = encoder.encode(state, stamp);
  EXPECT_EQ(first, encode_checkpoint(state, stamp));
  // A NaN last row is still recognised as the cached one.
  EXPECT_EQ(encoder.encode(state, stamp), first);
  state.partial.steps.push_back(state.partial.steps.back());
  state.partial.steps.back().gross_power_w = nan;
  ++state.steps_consumed;
  EXPECT_EQ(encoder.encode(state, stamp), encode_checkpoint(state, stamp));

  const DecodedCheckpoint decoded = decode_checkpoint(first, stamp);
  EXPECT_TRUE(std::isnan(decoded.state.partial.steps[2].overhead_energy_j));
  EXPECT_TRUE(std::isnan(decoded.state.partial.steps[7].compute_time_s));
  EXPECT_EQ(decoded.state.partial.steps[2].net_power_w,
            state.partial.steps[2].net_power_w);
}

TEST(CheckpointEncoder, ServerCheckpointEqualsFreshEncode) {
  const auto trace = dnor_trace();
  StreamConfig config = test_config(trace);
  config.scheme = StreamScheme::kDnor;
  const std::string stamp = stream_config_fingerprint_text(config);
  const std::string dir = testing::TempDir();
  const std::string csv_path = dir + "/ckpt_encoder_trace.csv";
  const std::string ckpt_path = dir + "/ckpt_encoder_server.ckpt";
  trace.save_csv(csv_path);
  std::remove(ckpt_path.c_str());

  std::vector<std::string> emitted;
  StreamServerOptions options;
  options.stall_timeout_ms = 0;
  options.warn = [](const std::string& message) { ADD_FAILURE() << message; };
  StreamServer server(
      [&emitted](const std::string& line) { emitted.push_back(line); },
      options);
  StreamArrayOptions array;
  array.config = config;
  auto feed = std::make_unique<StringFeed>();
  feed->push(util::read_file_if_exists(csv_path).value());
  feed->close();
  array.feed = std::move(feed);
  array.checkpoint_path = ckpt_path;
  array.checkpoint_every_steps = 7;  // many incremental encodes before exit
  server.add_array(std::move(array));
  const std::vector<StreamArrayReport> reports = server.run();
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_TRUE(reports[0].error.empty()) << reports[0].error;
  ASSERT_GT(reports[0].decisions, 1u);

  const std::string written = util::read_file_if_exists(ckpt_path).value();
  std::remove(csv_path.c_str());
  std::remove(ckpt_path.c_str());
  const DecodedCheckpoint decoded = decode_checkpoint(written, stamp);
  EXPECT_EQ(encode_checkpoint(decoded.state, stamp, decoded.extra_lines),
            written);
  // The file holds the live run, not a stale cache: the full log and
  // every step of the stepper's own final result.
  EXPECT_EQ(decoded.extra_lines, emitted);
  const SimulationResult& result = reports[0].result;
  ASSERT_EQ(decoded.state.partial.steps.size(), result.steps.size());
  EXPECT_EQ(decoded.state.steps_consumed, trace.num_steps());
  for (std::size_t i = 0; i < result.steps.size(); ++i) {
    const StepRecord& a = decoded.state.partial.steps[i];
    const StepRecord& b = result.steps[i];
    ASSERT_EQ(a.time_s, b.time_s) << i;
    ASSERT_EQ(a.gross_power_w, b.gross_power_w) << i;
    ASSERT_EQ(a.net_power_w, b.net_power_w) << i;
    ASSERT_EQ(a.ideal_power_w, b.ideal_power_w) << i;
    ASSERT_EQ(a.invoked, b.invoked) << i;
    ASSERT_EQ(a.switched, b.switched) << i;
    ASSERT_EQ(a.switch_actuations, b.switch_actuations) << i;
    ASSERT_EQ(a.overhead_energy_j, b.overhead_energy_j) << i;
    ASSERT_EQ(a.compute_time_s, b.compute_time_s) << i;
  }
}

// ------------------------------------------------------------- fault matrix

class CheckpointFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = std::make_unique<thermal::TemperatureTrace>(test_trace());
    config_ = test_config(*trace_);
    stamp_ = stream_config_fingerprint_text(config_);
    path_ = testing::TempDir() + "/ckpt_fault_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".ckpt";
    std::remove(path_.c_str());
    run_ = make_run(config_, *trace_, 6);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  util::AtomicWriteOptions write_options(util::FaultInjector& faults) {
    util::AtomicWriteOptions options;
    options.fault_site = "stream.checkpoint";
    options.faults = &faults;
    options.retry.initial_backoff_ms = 0;
    options.retry.max_backoff_ms = 0;
    return options;
  }

  // The checkpoint file door as the stream server drives it: encode the
  // snapshot and publish it through util::atomic_write_file; read it back
  // and decode before any state is applied.
  static void save(const SimStepper& stepper, const std::string& path,
                   const std::string& stamp,
                   util::AtomicWriteOptions options = {}) {
    if (options.fault_site.empty()) options.fault_site = "stream.checkpoint";
    util::atomic_write_file(
        path, encode_checkpoint(stepper.state(), stamp, /*extra_lines=*/{}),
        options);
  }
  static void restore(SimStepper& stepper, const std::string& path,
                      const std::string& stamp) {
    const std::optional<std::string> text = util::read_file_if_exists(path);
    if (!text) throw std::runtime_error("cannot read checkpoint " + path);
    stepper.restore_state(decode_checkpoint(*text, stamp).state);
  }

  std::unique_ptr<thermal::TemperatureTrace> trace_;
  StreamConfig config_;
  std::string stamp_;
  std::string path_;
  SteppedRun run_;
};

TEST_F(CheckpointFaults, WriteFailExhaustsRetriesAndThrows) {
  util::FaultInjector faults;
  faults.arm("stream.checkpoint.write_fail", 1, 1000);  // every attempt
  EXPECT_THROW(save(*run_.stepper, path_, stamp_, write_options(faults)),
               std::runtime_error);
  EXPECT_FALSE(util::read_file_if_exists(path_).has_value());  // nothing torn

  // A transient failure (first attempt only) is retried to success.
  util::FaultInjector transient;
  transient.arm("stream.checkpoint.write_fail", 1, 1);
  save(*run_.stepper, path_, stamp_, write_options(transient));
  SteppedRun fresh = make_run(config_, *trace_, 0);
  restore(*fresh.stepper, path_, stamp_);
  EXPECT_EQ(fresh.stepper->steps_consumed(), 6u);
}

TEST_F(CheckpointFaults, TornPublicationIsRejectedOnRestore) {
  util::FaultInjector faults;
  faults.arm("stream.checkpoint.torn", 1, 1);
  save(*run_.stepper, path_, stamp_, write_options(faults));
  // The torn fault published a half-written prefix: restore must throw,
  // never restore a partial state.
  SteppedRun fresh = make_run(config_, *trace_, 0);
  EXPECT_THROW(restore(*fresh.stepper, path_, stamp_), std::runtime_error);
  EXPECT_EQ(fresh.stepper->steps_consumed(), 0u);  // untouched by the failure
}

TEST_F(CheckpointFaults, CrashLeavesPreviousCheckpointIntact) {
  save(*run_.stepper, path_, stamp_);  // a good generation-1 checkpoint

  // Advance, then crash mid-write of generation 2: the temp is abandoned
  // before rename, so generation 1 must still be on disk, whole.
  TraceSample sample;
  sample.time_s = 6 * trace_->dt_s();
  sample.module_temps_c = trace_->step_temperatures(6);
  sample.ambient_c = trace_->ambient_c(6);
  run_.stepper->step(sample);
  util::FaultInjector faults;
  faults.arm("stream.checkpoint.crash", 1, 1);
  EXPECT_THROW(save(*run_.stepper, path_, stamp_, write_options(faults)),
               util::AtomicWriteCrash);

  SteppedRun fresh = make_run(config_, *trace_, 0);
  restore(*fresh.stepper, path_, stamp_);
  EXPECT_EQ(fresh.stepper->steps_consumed(), 6u);  // generation 1, not 7
}

// ------------------------------------------- fingerprint field sensitivity

// Runtime twin of the compile-time field-count guards: every result-affecting
// StreamConfig field must move the fingerprint, and the execution hints
// must not (two machines with different core counts share checkpoints, and
// a warm EHTR stream resumes a cold one's).
TEST(Checkpoint, FingerprintMovesPerResultAffectingField) {
  const StreamConfig base = [] {
    StreamConfig c;
    c.num_modules = 8;
    return c;
  }();
  const std::string fp = stream_config_fingerprint_text(base);

  StreamConfig scheme = base;
  scheme.scheme = StreamScheme::kEhtr;
  EXPECT_NE(stream_config_fingerprint_text(scheme), fp);

  StreamConfig period = base;
  period.control_period_s = 1.0;
  EXPECT_NE(stream_config_fingerprint_text(period), fp);

  StreamConfig dt = base;
  dt.dt_s = 0.25;
  EXPECT_NE(stream_config_fingerprint_text(dt), fp);

  StreamConfig modules = base;
  modules.num_modules = 9;
  EXPECT_NE(stream_config_fingerprint_text(modules), fp);

  StreamConfig physics = base;
  physics.sim.charge_overhead = !physics.sim.charge_overhead;
  EXPECT_NE(stream_config_fingerprint_text(physics), fp);

  StreamConfig battery = base;
  battery.sim.battery.capacity_ah *= 2.0;
  EXPECT_NE(stream_config_fingerprint_text(battery), fp);

  // Execution hints and the warm/cold EHTR search: excluded by design.
  StreamConfig exec_hint = base;
  exec_hint.sim.num_threads = 7;
  exec_hint.sim.ehtr_warm_start = !exec_hint.sim.ehtr_warm_start;
  exec_hint.sim.ehtr_warm_width = 3;
  EXPECT_EQ(stream_config_fingerprint_text(exec_hint), fp);
}

TEST(Checkpoint, SchemeNamesRoundTrip) {
  for (StreamScheme scheme : {StreamScheme::kDnor, StreamScheme::kInor,
                              StreamScheme::kEhtr, StreamScheme::kBaseline}) {
    EXPECT_EQ(parse_stream_scheme(stream_scheme_name(scheme)), scheme);
  }
  EXPECT_THROW(parse_stream_scheme("mppt"), std::invalid_argument);
}

}  // namespace
}  // namespace tegrec::sim
