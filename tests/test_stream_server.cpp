// StreamServer: concurrent multi-array tracking over live telemetry.
// These tests drive the server in-process with StringFeeds so TSan and the
// clang thread-safety job can watch the emitter mutex and per-array
// threads; the shell smoke (tests/stream_smoke.sh) covers the real
// process/signal matrix.
#include "sim/stream_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/run_table.hpp"
#include "sim/stepper.hpp"
#include "sim/telemetry.hpp"
#include "thermal/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

namespace tegrec::sim {
namespace {

thermal::TemperatureTrace test_trace() {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = 12;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 12.0, 32.0, 0.0}};
  config.seed = 9;
  return thermal::generate_trace(config);
}

/// The trace's CSV text, via save_csv (the exact dialect the telemetry
/// layer parses).
std::string trace_csv(const thermal::TemperatureTrace& trace) {
  const std::string path = testing::TempDir() + "/stream_server_trace.csv";
  trace.save_csv(path);
  const auto text = util::read_file_if_exists(path);
  std::remove(path.c_str());
  return text.value();
}

/// First `rows` data lines of the CSV (plus header).
std::string csv_prefix(const std::string& csv, std::size_t rows) {
  std::string out;
  std::size_t line = 0;
  std::size_t start = 0;
  while (line < rows + 1 && start < csv.size()) {
    const std::size_t nl = csv.find('\n', start);
    out += csv.substr(start, nl - start + 1);
    start = nl + 1;
    ++line;
  }
  return out;
}

std::unique_ptr<StringFeed> feed_of(const std::string& bytes) {
  auto feed = std::make_unique<StringFeed>();
  feed->push(bytes);
  feed->close();
  return feed;
}

StreamConfig explicit_config(const thermal::TemperatureTrace& trace,
                             StreamScheme scheme = StreamScheme::kDnor) {
  StreamConfig config;
  config.scheme = scheme;
  config.dt_s = trace.dt_s();
  config.num_modules = trace.num_modules();
  config.sim.num_threads = 1;
  return config;
}

struct Capture {
  std::vector<std::string> lines;
  std::vector<std::string> warnings;
  LineSink sink() {
    return [this](const std::string& line) { lines.push_back(line); };
  }
  util::WarnFn warn() {
    return [this](const std::string& message) { warnings.push_back(message); };
  }
};

struct SingleRun {
  std::vector<std::string> lines;     ///< emitted by this process
  std::vector<std::string> restored;  ///< decision log a resume handed back
  StreamArrayReport report;
};

/// One array through a StreamServer, checkpointing to `ckpt` (when given)
/// every two steps and first restoring from it under `resume`.
SingleRun run_single(const StreamConfig& config, const std::string& csv,
                     const std::string& ckpt = "", bool resume = false,
                     util::FaultInjector* faults = nullptr) {
  SingleRun run;
  Capture capture;
  StreamServerOptions options;
  options.warn = capture.warn();
  StreamServer server(capture.sink(), options);
  StreamArrayOptions array;
  array.config = config;
  array.feed = feed_of(csv);
  array.checkpoint_path = ckpt;
  array.checkpoint_every_steps = 2;
  array.resume = resume;
  array.faults = faults;
  array.on_resume = [&run](const std::vector<std::string>& lines) {
    run.restored = lines;
  };
  server.add_array(std::move(array));
  run.report = server.run().at(0);
  run.lines = std::move(capture.lines);
  return run;
}

/// The run as its exact-precision table.
std::string run_text(const SimulationResult& run) {
  std::string out;
  append_run(out, run, "algorithm = ");
  return out;
}

/// Expects a resumed run's restored log plus its new lines to be
/// byte-identical to the uninterrupted run's log, and the results equal.
void expect_resumed_equals(const SingleRun& after, const SingleRun& full) {
  std::vector<std::string> stitched = after.restored;
  stitched.insert(stitched.end(), after.lines.begin(), after.lines.end());
  EXPECT_EQ(stitched, full.lines);  // byte-identical to never having died
  EXPECT_EQ(run_text(after.report.result), run_text(full.report.result));
}

/// Interrupts a stream run under `writer` after half the trace, resumes it
/// under `reader` re-fed from t = 0, and expects the restored log plus the
/// new lines, and the result, to equal an uninterrupted `reader` run's.
void expect_resume_matches_uninterrupted(const thermal::TemperatureTrace& trace,
                                         const StreamConfig& writer,
                                         const StreamConfig& reader) {
  const std::string csv = trace_csv(trace);
  const std::string ckpt = testing::TempDir() + "/resume.ckpt";
  std::remove(ckpt.c_str());

  // Reference: the uninterrupted run.
  const SingleRun full = run_single(reader, csv);
  ASSERT_TRUE(full.report.error.empty()) << full.report.error;

  // First process: sees only a prefix, checkpoints, "dies" at stream end.
  const std::size_t cut = trace.num_steps() / 2;
  const SingleRun before = run_single(writer, csv_prefix(csv, cut), ckpt);
  ASSERT_TRUE(before.report.error.empty()) << before.report.error;
  ASSERT_EQ(before.report.result.steps.size(), cut);

  // Second process: resumes and is re-fed the whole stream from t = 0.
  const SingleRun after = run_single(reader, csv, ckpt, /*resume=*/true);
  ASSERT_TRUE(after.report.error.empty()) << after.report.error;
  EXPECT_TRUE(after.report.resumed);
  EXPECT_EQ(after.report.replayed, cut);  // prefix silently skipped
  EXPECT_EQ(after.report.result.steps.size(), trace.num_steps());

  EXPECT_EQ(after.restored, before.lines);  // the log survived intact
  expect_resumed_equals(after, full);
  std::remove(ckpt.c_str());
}

// Three arrays with three schemes share one emitter; every line must be a
// well-formed, single-line JSON object tagged with a known array name, and
// every array must consume the full stream independently.
TEST(StreamServer, TracksMultipleArraysConcurrently) {
  const auto trace = test_trace();
  const std::string csv = trace_csv(trace);
  Capture capture;
  StreamServerOptions options;
  options.warn = capture.warn();
  StreamServer server(capture.sink(), options);
  const std::vector<std::pair<std::string, StreamScheme>> arrays = {
      {"north", StreamScheme::kDnor},
      {"south", StreamScheme::kInor},
      {"roof", StreamScheme::kBaseline}};
  for (const auto& [name, scheme] : arrays) {
    StreamArrayOptions array;
    array.name = name;
    array.config = explicit_config(trace, scheme);
    array.feed = feed_of(csv);
    server.add_array(std::move(array));
  }
  const std::vector<StreamArrayReport> reports = server.run();

  ASSERT_EQ(reports.size(), 3u);
  std::set<std::string> names;
  for (const StreamArrayReport& report : reports) {
    EXPECT_TRUE(report.error.empty()) << report.name << ": " << report.error;
    EXPECT_EQ(report.result.steps.size(), trace.num_steps()) << report.name;
    EXPECT_EQ(report.step_latency_ms.count(), trace.num_steps())
        << report.name;
    EXPECT_GT(report.step_latency_ms.max(), 0.0) << report.name;
    EXPECT_EQ(report.gaps, 0u);
    EXPECT_EQ(report.out_of_order, 0u);
    names.insert(report.name);
  }
  EXPECT_EQ(names, (std::set<std::string>{"north", "south", "roof"}));
  EXPECT_TRUE(capture.warnings.empty());
  ASSERT_FALSE(capture.lines.empty());
  for (const std::string& line : capture.lines) {
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const util::json::Value value = util::json::parse(line);  // throws if bad
    (void)value;
    EXPECT_TRUE(line.find("\"array\":\"north\"") != std::string::npos ||
                line.find("\"array\":\"south\"") != std::string::npos ||
                line.find("\"array\":\"roof\"") != std::string::npos)
        << line;
  }
}

// A trace file and the stream of its bytes are one input: run_simulation
// over load_trace_csv(path) and a StreamServer that derives its grid from
// the same bytes take the same decisions, step for step and bit for bit.
TEST(StreamServer, LoadedTraceFileRunsLikeTheStreamOfItsBytes) {
  const std::string path = testing::TempDir() + "/stream_server_batch.csv";
  test_trace().save_csv(path);
  const thermal::TemperatureTrace loaded = load_trace_csv(path);
  const std::string csv = util::read_file_if_exists(path).value();
  std::remove(path.c_str());
  for (const StreamScheme scheme :
       {StreamScheme::kDnor, StreamScheme::kInor, StreamScheme::kBaseline}) {
    SCOPED_TRACE(stream_scheme_name(scheme));
    StreamConfig derived;  // dt and module count come from the bytes
    derived.scheme = scheme;
    derived.sim.num_threads = 1;
    const SingleRun streamed = run_single(derived, csv);
    ASSERT_TRUE(streamed.report.error.empty()) << streamed.report.error;

    const StreamConfig resolved = explicit_config(loaded, scheme);
    const auto controller = make_stream_controller(resolved);
    const SimulationResult batch =
        run_simulation(*controller, loaded, resolved.sim);
    ASSERT_EQ(batch.steps.size(), loaded.num_steps());
    EXPECT_EQ(run_text(batch), run_text(streamed.report.result));
  }
}

// A checkpoint write failure must cost durability, not availability: one
// warning, checkpointing off, and the stream runs to completion anyway.
TEST(StreamServer, CheckpointWriteFailureDegradesGracefully) {
  const auto trace = test_trace();
  const std::string csv = trace_csv(trace);
  const std::string ckpt = testing::TempDir() + "/degrade.ckpt";
  std::remove(ckpt.c_str());

  util::FaultInjector faults;
  faults.arm("stream.checkpoint.write_fail", 1, 1000000);  // every attempt
  Capture capture;
  StreamServerOptions options;
  options.warn = capture.warn();
  StreamServer server(capture.sink(), options);
  StreamArrayOptions array;
  array.config = explicit_config(trace);
  array.feed = feed_of(csv);
  array.checkpoint_path = ckpt;
  array.checkpoint_every_steps = 3;
  array.faults = &faults;
  server.add_array(std::move(array));
  const std::vector<StreamArrayReport> reports = server.run();

  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].error.empty()) << reports[0].error;
  EXPECT_EQ(reports[0].result.steps.size(), trace.num_steps());  // kept going
  EXPECT_TRUE(reports[0].checkpointing_disabled);
  EXPECT_FALSE(util::read_file_if_exists(ckpt).has_value());
  std::size_t degrade_warnings = 0;
  for (const std::string& warning : capture.warnings) {
    if (warning.find("checkpoint write failed") != std::string::npos) {
      ++degrade_warnings;
    }
  }
  EXPECT_EQ(degrade_warnings, 1u);  // warn once, not once per period
}

// ------------------------------------------ background checkpoint writes

/// A stepper fed the CSV's data lines parsed as the server parses them.
struct ReferenceRun {
  std::unique_ptr<core::Reconfigurer> controller;
  std::unique_ptr<SimStepper> stepper;
};

ReferenceRun reference_run(const StreamConfig& config, const std::string& csv) {
  ReferenceRun run;
  run.controller = make_stream_controller(config);
  run.stepper = std::make_unique<SimStepper>(*run.controller, config.dt_s,
                                             config.num_modules, config.sim);
  TelemetryOptions options;
  options.dt_s = config.dt_s;
  options.num_modules = config.num_modules;
  LineTelemetrySource source(feed_of(csv), options);
  for (TelemetryEvent event = source.poll();
       event.kind == TelemetryEvent::Kind::kSample; event = source.poll()) {
    run.stepper->step(event.sample);
  }
  return run;
}

DecodedCheckpoint read_checkpoint(const std::string& path,
                                  const StreamConfig& config) {
  return decode_checkpoint(util::read_file_if_exists(path).value(),
                           stream_config_fingerprint_text(config));
}

/// Hands over `bytes` in one chunk, then answers every later poll with
/// `after` (throw, or raise a stop flag and idle).
class ScriptedFeed final : public ByteFeed {
 public:
  ScriptedFeed(std::string bytes, std::function<Status()> after)
      : bytes_(std::move(bytes)), after_(std::move(after)) {}
  Status poll(std::string& chunk) override {
    if (bytes_.empty()) return after_();
    chunk += bytes_;
    bytes_.clear();
    return Status::kData;
  }
  std::string describe() const override { return "scripted"; }

 private:
  std::string bytes_;
  std::function<Status()> after_;
};

/// Runs one array over `feed`, checkpointing to `ckpt` every two steps.
StreamArrayReport run_scripted(const StreamConfig& config,
                               std::unique_ptr<ByteFeed> feed,
                               const std::string& ckpt,
                               util::FaultInjector& faults, Capture& capture,
                               const std::atomic<bool>* stop = nullptr) {
  StreamServerOptions options;
  options.warn = capture.warn();
  options.poll_ms = 1;
  StreamServer server(capture.sink(), options);
  StreamArrayOptions array;
  array.config = config;
  array.feed = std::move(feed);
  array.checkpoint_path = ckpt;
  array.checkpoint_every_steps = 2;
  array.faults = &faults;
  server.add_array(std::move(array));
  return server.run(stop).at(0);
}

// The process "dies" during a write that runs behind the stepping loop:
// the array fails with the crash, the previous generation stays on disk
// with its bytes (measured controller time aside), and resuming from it
// reproduces the uninterrupted log.
TEST(StreamServer, CrashDuringABackgroundWriteKeepsThePreviousGeneration) {
  const auto trace = test_trace();
  const StreamConfig config = explicit_config(trace);
  const std::string csv = trace_csv(trace);
  const std::string ckpt = testing::TempDir() + "/crash_in_flight.ckpt";
  std::remove(ckpt.c_str());
  const SingleRun full = run_single(config, csv);
  ASSERT_TRUE(full.report.error.empty()) << full.report.error;

  // Writes at steps 2, 4, 6, ...: the third dies before its rename.
  util::FaultInjector faults;
  faults.arm("stream.checkpoint.crash", 3, 3);
  const SingleRun crashed = run_single(config, csv, ckpt, false, &faults);
  EXPECT_NE(crashed.report.error.find("injected crash"), std::string::npos)
      << crashed.report.error;

  // On disk: the step-4 generation, the log up to step 4 included.
  constexpr std::size_t kKept = 4;
  const ReferenceRun reference = reference_run(config, csv_prefix(csv, kKept));
  std::vector<std::string> prefix;
  for (const std::string& line : full.lines) {
    const double time_s = util::json::parse(line).at("time_s").as_number();
    if (time_s < static_cast<double>(kKept) * trace.dt_s()) {
      prefix.push_back(line);
    }
  }
  const std::string stamp = stream_config_fingerprint_text(config);
  const DecodedCheckpoint on_disk = read_checkpoint(ckpt, config);
  EXPECT_EQ(encode_checkpoint(on_disk.state, stamp, on_disk.extra_lines),
            encode_checkpoint(reference.stepper->state(), stamp, prefix));

  const SingleRun after = run_single(config, csv, ckpt, /*resume=*/true);
  ASSERT_TRUE(after.report.error.empty()) << after.report.error;
  EXPECT_EQ(after.report.replayed, kKept);
  EXPECT_EQ(after.restored, prefix);
  expect_resumed_equals(after, full);
  std::remove(ckpt.c_str());
}

// A feed that fails while a write is in flight fails the array; unwinding
// joins the write (no hang, no std::terminate), and that write completes.
TEST(StreamServer, FeedFailureJoinsTheWriteInFlight) {
  const auto trace = test_trace();
  const StreamConfig config = explicit_config(trace);
  const std::string ckpt = testing::TempDir() + "/feed_failure.ckpt";
  std::remove(ckpt.c_str());
  // The step-6 write's first attempt fails, so it is still retrying after
  // its backoff when the feed throws.
  util::FaultInjector faults;
  faults.arm("stream.checkpoint.write_fail", 3, 3);
  Capture capture;
  const StreamArrayReport report = run_scripted(
      config,
      std::make_unique<ScriptedFeed>(
          csv_prefix(trace_csv(trace), 6),
          []() -> ByteFeed::Status { throw std::runtime_error("feed broke"); }),
      ckpt, faults, capture);

  EXPECT_NE(report.error.find("feed broke"), std::string::npos)
      << report.error;
  EXPECT_FALSE(report.checkpointing_disabled);
  EXPECT_EQ(read_checkpoint(ckpt, config).state.steps_consumed, 6u);
  std::remove(ckpt.c_str());
}

// A write that fails in the background is not lost when the feed fails
// before the next checkpoint collects it: the array reports the feed error
// and warns once about the write.
TEST(StreamServer, FeedFailureReportsTheWriteThatFailedInFlight) {
  const auto trace = test_trace();
  const StreamConfig config = explicit_config(trace);
  const std::string ckpt = testing::TempDir() + "/feed_and_write.ckpt";
  std::remove(ckpt.c_str());
  // Every attempt of the step-2 write fails; the feed throws after step 3,
  // before the step-4 checkpoint.
  util::FaultInjector faults;
  faults.arm("stream.checkpoint.write_fail", 1, 1000000);
  Capture capture;
  const StreamArrayReport report = run_scripted(
      config,
      std::make_unique<ScriptedFeed>(
          csv_prefix(trace_csv(trace), 3),
          []() -> ByteFeed::Status { throw std::runtime_error("feed broke"); }),
      ckpt, faults, capture);

  EXPECT_NE(report.error.find("feed broke"), std::string::npos)
      << report.error;
  EXPECT_TRUE(report.checkpointing_disabled);
  EXPECT_FALSE(util::read_file_if_exists(ckpt).has_value());
  std::size_t write_warnings = 0;
  for (const std::string& warning : capture.warnings) {
    if (warning.find("checkpoint write failed") != std::string::npos) {
      ++write_warnings;
    }
  }
  EXPECT_EQ(write_warnings, 1u);
}

// A stop request waits for the write in flight, then writes the final
// checkpoint: it decodes to the stepper's end state and the full log.
TEST(StreamServer, StopFlagWritesTheFinalCheckpointAfterTheWriteInFlight) {
  const auto trace = test_trace();
  const StreamConfig config = explicit_config(trace);
  const std::string ckpt = testing::TempDir() + "/stop_flag.ckpt";
  std::remove(ckpt.c_str());
  util::FaultInjector faults;
  faults.arm("stream.checkpoint.write_fail", 3, 3);  // slows the step-6 write
  std::atomic<bool> stop{false};
  Capture capture;
  const StreamArrayReport report = run_scripted(
      config,
      std::make_unique<ScriptedFeed>(csv_prefix(trace_csv(trace), 7),
                                     [&stop] {
                                       stop = true;
                                       return ByteFeed::Status::kIdle;
                                     }),
      ckpt, faults, capture, &stop);

  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_FALSE(report.checkpointing_disabled);
  ASSERT_EQ(report.result.steps.size(), 7u);
  const DecodedCheckpoint final_checkpoint = read_checkpoint(ckpt, config);
  EXPECT_EQ(final_checkpoint.state.steps_consumed, 7u);
  EXPECT_EQ(run_text(final_checkpoint.state.partial), run_text(report.result));
  EXPECT_EQ(final_checkpoint.extra_lines, capture.lines);
  EXPECT_TRUE(capture.warnings.empty());
  std::remove(ckpt.c_str());
}

// The durability contract, in-process: interrupt a stream after a prefix,
// resume against the checkpoint with the stream re-fed from the start, and
// the concatenation of restored log + new lines is byte-identical to an
// uninterrupted run's log.
TEST(StreamServer, ResumeReproducesUninterruptedDecisionLog) {
  const auto trace = test_trace();
  const StreamConfig config = explicit_config(trace);
  expect_resume_matches_uninterrupted(trace, config, config);
}

// ------------------------------------------- EHTR: warm search vs cold

/// 200 modules: wider than the warm pass's default 64-count neighbourhood
/// of the incumbent (about 20 groups here), so the score bound rules out
/// roughly half of the group counts.
thermal::TemperatureTrace ehtr_trace() {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = 200;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 15.0, 32.0, 0.0}};
  config.seed = 9;
  return thermal::generate_trace(config);
}

StreamConfig ehtr_config(const thermal::TemperatureTrace& trace, bool warm) {
  StreamConfig config = explicit_config(trace, StreamScheme::kEhtr);
  config.sim.ehtr_warm_start = warm;
  return config;
}

// The production default is the warm search; forcing the cold oracle must
// not change one byte of the decision log or the result.
TEST(StreamServer, EhtrDefaultWarmStreamEqualsColdOracle) {
  const auto trace = ehtr_trace();
  const std::string csv = trace_csv(trace);
  ASSERT_TRUE(StreamConfig{}.sim.ehtr_warm_start);
  const SingleRun warm = run_single(ehtr_config(trace, true), csv);
  const SingleRun cold = run_single(ehtr_config(trace, false), csv);
  ASSERT_TRUE(warm.report.error.empty()) << warm.report.error;
  ASSERT_TRUE(cold.report.error.empty()) << cold.report.error;
  EXPECT_GT(warm.report.decisions, 1u);  // the stream really reconfigures
  EXPECT_EQ(warm.lines, cold.lines);
  EXPECT_EQ(run_text(warm.report.result), run_text(cold.report.result));
}

// The warm knobs are outside the stamp: a checkpoint
// written by either search resumes under the other, and the stitched log
// equals the uninterrupted one.
TEST(StreamServer, EhtrCheckpointResumesAcrossWarmAndCold) {
  const auto trace = ehtr_trace();
  for (const bool writer_warm : {true, false}) {
    SCOPED_TRACE(writer_warm ? "written warm, resumed cold"
                             : "written cold, resumed warm");
    expect_resume_matches_uninterrupted(trace, ehtr_config(trace, writer_warm),
                                        ehtr_config(trace, !writer_warm));
  }
}

// A checkpoint stamped while the warm knobs were still stamp fields (spec
// schema v3) was written under a different stamp text, and must say so
// rather than resume.
TEST(StreamServer, CheckpointStampedWithWarmKnobsIsRejected) {
  const auto trace = ehtr_trace();
  const std::string csv = trace_csv(trace);
  const std::string ckpt = testing::TempDir() + "/ehtr_v3.ckpt";
  std::remove(ckpt.c_str());
  const StreamConfig config = ehtr_config(trace, true);
  const SingleRun before = run_single(config, csv_prefix(csv, 6), ckpt);
  ASSERT_TRUE(before.report.error.empty()) << before.report.error;

  const std::string stamp = stream_config_fingerprint_text(config);
  const std::string anchor = "sim.ehtr_max_groups = 0\n";
  std::string legacy = stamp;
  const std::size_t at = legacy.find(anchor);
  ASSERT_NE(at, std::string::npos) << stamp;
  legacy.insert(at + anchor.size(),
                "sim.ehtr_warm_start = 1\nsim.ehtr_warm_width = 64\n");
  const DecodedCheckpoint decoded =
      decode_checkpoint(util::read_file_if_exists(ckpt).value(), stamp);
  util::atomic_write_file(
      ckpt, encode_checkpoint(decoded.state, legacy, decoded.extra_lines));

  const SingleRun after = run_single(config, csv, ckpt, /*resume=*/true);
  EXPECT_NE(after.report.error.find("configuration stamp mismatch"),
            std::string::npos)
      << after.report.error;
  EXPECT_FALSE(after.report.resumed);
  std::remove(ckpt.c_str());
}

// Resuming against garbage must fail the array loudly — a silent fresh
// start would discard the operator's history.
TEST(StreamServer, CorruptCheckpointFailsTheArrayLoudly) {
  const auto trace = test_trace();
  const std::string ckpt = testing::TempDir() + "/corrupt.ckpt";
  util::atomic_write_file(ckpt, "these are not the droids\n");
  Capture capture;
  StreamServerOptions options;
  options.warn = capture.warn();
  StreamServer server(capture.sink(), options);
  StreamArrayOptions array;
  array.config = explicit_config(trace);
  array.feed = feed_of(trace_csv(trace));
  array.checkpoint_path = ckpt;
  array.resume = true;
  server.add_array(std::move(array));
  const auto reports = server.run();
  EXPECT_FALSE(reports[0].error.empty());
  EXPECT_NE(reports[0].error.find("checkpoint"), std::string::npos);
  std::remove(ckpt.c_str());
}

// Resume requires the grid up front: the stamp must be validated before
// any data flows, so a derive-from-stream config cannot resume.
TEST(StreamServer, ResumeWithoutExplicitGridIsAnError) {
  const auto trace = test_trace();
  Capture capture;
  StreamServerOptions options;
  options.warn = capture.warn();
  StreamServer server(capture.sink(), options);
  StreamArrayOptions array;
  array.config.scheme = StreamScheme::kDnor;  // dt_s / num_modules unset
  array.config.dt_s = 0.0;
  array.feed = feed_of(trace_csv(trace));
  array.checkpoint_path = testing::TempDir() + "/nogrid.ckpt";
  array.resume = true;
  server.add_array(std::move(array));
  const auto reports = server.run();
  EXPECT_FALSE(reports[0].error.empty());
  EXPECT_NE(reports[0].error.find("explicit grid"), std::string::npos);
}

// An idle stream trips the stall warning (once per episode) and the idle
// exit; the grid can be derived from the stream itself along the way.
TEST(StreamServer, StallWarnsOnceAndIdleExitEndsTheRun) {
  const auto trace = test_trace();
  const std::string csv = trace_csv(trace);
  auto feed = std::make_unique<StringFeed>();
  feed->push(csv);  // full stream delivered, but the feed never closes
  Capture capture;
  StreamServerOptions options;
  options.warn = capture.warn();
  options.poll_ms = 2;
  options.stall_timeout_ms = 10;
  options.idle_exit_ms = 60;
  StreamServer server(capture.sink(), options);
  StreamArrayOptions array;
  array.config.scheme = StreamScheme::kInor;
  array.config.dt_s = 0.0;       // derive from the stream
  array.config.num_modules = 0;  // likewise
  array.feed = std::move(feed);
  server.add_array(std::move(array));
  const auto reports = server.run();

  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].error.empty()) << reports[0].error;
  EXPECT_EQ(reports[0].result.steps.size(), trace.num_steps());
  EXPECT_EQ(reports[0].stalls, 1u);
  std::size_t stall_warnings = 0;
  for (const std::string& warning : capture.warnings) {
    if (warning.find("no telemetry") != std::string::npos) ++stall_warnings;
  }
  EXPECT_EQ(stall_warnings, 1u);
}

TEST(StreamServer, RejectsBadConfigurations) {
  Capture capture;
  StreamServer server(capture.sink());
  EXPECT_THROW(server.run(), std::logic_error);  // no arrays

  StreamServer dupes(capture.sink());
  StreamArrayOptions a;
  a.feed = std::make_unique<StringFeed>();
  dupes.add_array(std::move(a));
  StreamArrayOptions b;
  b.feed = std::make_unique<StringFeed>();
  EXPECT_THROW(dupes.add_array(std::move(b)),
               std::invalid_argument);  // duplicate name "main"

  StreamArrayOptions no_feed;
  no_feed.name = "other";
  EXPECT_THROW(dupes.add_array(std::move(no_feed)), std::invalid_argument);
}

}  // namespace
}  // namespace tegrec::sim
