// The two streaming workloads: stream_ckpt_hour and stream_kilo.
//
// Untraced runs go through the real sim::StreamServer, fed closed-loop by
// a ScriptedFeed; the interval between two consecutive feed polls is one
// server iteration.  The traced run re-drives the same server loop from
// here (LineTelemetrySource -> SimStepper -> emit -> checkpoint) around a
// TimingReconfigurer, because the server builds its controller itself;
// its decision log and results must equal the server's byte for byte.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "sim/stream_server.hpp"
#include "teg/array_evaluator.hpp"
#include "thermal/drive_cycle.hpp"
#include "thermal/scenario.hpp"
#include "util/atomic_file.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

namespace tegbench {
namespace {

constexpr std::size_t kCkptModules = 64;
constexpr std::size_t kCkptSteps = 7200;  // one hour at dt 0.5 s
constexpr std::size_t kCkptEvery = 50;
constexpr std::size_t kKiloModules = 1000;
constexpr std::size_t kKiloSteps = 1000;
constexpr std::size_t kKiloEhtrReplayStride = 25;

const std::vector<sim::StreamScheme> kKiloSchemes = {
    sim::StreamScheme::kDnor, sim::StreamScheme::kInor,
    sim::StreamScheme::kEhtr};

// --------------------------------------------------------------- inputs

struct StreamInputs {
  thermal::TemperatureTrace trace;
  /// The telemetry the program sees: the save_csv header, then one line
  /// per sample, each ending in '\n'.
  std::shared_ptr<const std::vector<std::string>> lines;
  std::size_t data_bytes = 0;
  double generate_s = 0.0;
};

StreamInputs make_inputs(const thermal::TraceGeneratorConfig& gen,
                         std::size_t steps) {
  StreamInputs in;
  const Clock::time_point t0 = Clock::now();
  const thermal::TemperatureTrace full = thermal::generate_trace(gen);
  in.generate_s = seconds_since(t0);
  if (full.num_steps() < steps) {
    throw std::runtime_error("generated trace is shorter than the workload");
  }
  in.trace = full.slice(0.0, static_cast<double>(steps) * full.dt_s());

  // The save_csv layout at exact precision, so the parsed stream carries
  // the generated doubles bit for bit.
  util::CsvTable table;
  table.header = {"time_s", "ambient_c"};
  for (std::size_t m = 0; m < in.trace.num_modules(); ++m) {
    table.header.push_back("t" + std::to_string(m));
  }
  for (std::size_t t = 0; t < in.trace.num_steps(); ++t) {
    std::vector<double> row{static_cast<double>(t) * in.trace.dt_s(),
                            in.trace.ambient_c(t)};
    const std::vector<double> temps = in.trace.step_temperatures(t);
    row.insert(row.end(), temps.begin(), temps.end());
    table.rows.push_back(std::move(row));
  }
  const std::string text = util::csv_to_string(table, util::kCsvExactPrecision);
  auto lines = std::make_shared<std::vector<std::string>>();
  lines->reserve(steps + 1);
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
    lines->push_back(text.substr(start, end - start));
    start = end;
  }
  if (lines->size() != steps + 1) {
    throw std::runtime_error("CSV rendering produced an unexpected line count");
  }
  for (std::size_t i = 1; i < lines->size(); ++i) {
    in.data_bytes += (*lines)[i].size();
  }
  in.lines = std::move(lines);
  return in;
}

sim::StreamConfig stream_config(sim::StreamScheme scheme,
                                const StreamInputs& in) {
  sim::StreamConfig config;
  config.scheme = scheme;
  config.dt_s = in.trace.dt_s();
  config.num_modules = in.trace.num_modules();
  return config;
}

// ------------------------------------------------------- untraced server

struct ServerLeg {
  std::vector<Clock::time_point> stamps;
  Clock::time_point start;
  Clock::time_point end;
  sim::StreamArrayReport report;
  std::vector<std::string> warnings;
  std::uint64_t allocations = 0;
};

/// One StreamServer run over data lines [0, data_count).  Decision lines
/// append to `log`; a resume replaces `log` with the checkpointed prefix
/// first, as a file-backed sink would.
void run_server_leg(const sim::StreamConfig& config, const StreamInputs& in,
                    std::size_t data_count, const std::string& ckpt_path,
                    bool resume, std::vector<std::string>& log, ServerLeg& leg) {
  leg.stamps.reserve(data_count + 2);
  sim::StreamServerOptions options;
  options.stall_timeout_ms = 0;
  options.warn = [&leg](const std::string& message) {
    leg.warnings.push_back(message);
  };
  sim::StreamServer server(
      [&log](const std::string& line) { log.push_back(line); }, options);
  sim::StreamArrayOptions array;
  array.config = config;
  array.feed = std::make_unique<ScriptedFeed>(in.lines, data_count + 1,
                                              &leg.stamps);
  if (!ckpt_path.empty()) {
    array.checkpoint_path = ckpt_path;
    array.checkpoint_every_steps = kCkptEvery;
    array.resume = resume;
    array.on_resume = [&log](const std::vector<std::string>& restored) {
      log = restored;
    };
  }
  server.add_array(std::move(array));
  const std::uint64_t allocs0 = allocation_count();
  leg.start = Clock::now();
  std::vector<sim::StreamArrayReport> reports = server.run();
  leg.end = Clock::now();
  leg.allocations = allocation_count() - allocs0;
  leg.report = std::move(reports.at(0));
}

/// Iteration latencies [us] of data samples [first, data_count).
void append_iterations(const ServerLeg& leg, std::size_t first,
                       std::size_t data_count, std::vector<double>& out) {
  if (leg.stamps.size() != data_count + 2) return;  // reported as failed
  for (std::size_t k = first; k < data_count; ++k) {
    out.push_back(seconds_between(leg.stamps[k + 1], leg.stamps[k + 2]) * 1e6);
  }
}

/// Appends the intervals [s] along the leg's timeline: run() start to the
/// first poll, poll to poll, and the last poll to run() end.  They sum to
/// the leg's wall time.
void append_intervals(const ServerLeg& leg, std::vector<double>& out) {
  Clock::time_point previous = leg.start;
  for (const Clock::time_point& stamp : leg.stamps) {
    out.push_back(seconds_between(previous, stamp));
    previous = stamp;
  }
  out.push_back(seconds_between(previous, leg.end));
}

bool leg_ok(const ServerLeg& leg, std::size_t data_count, Outcome& out,
            const std::string& label) {
  ++out.attempted;
  const bool ok = leg.report.error.empty() && !leg.report.checkpointing_disabled &&
                  leg.warnings.empty() && leg.stamps.size() == data_count + 2;
  if (!ok) {
    ++out.failed;
    out.mismatches.push_back(
        label + ": server run failed: " +
        (leg.report.error.empty()
             ? (leg.warnings.empty() ? std::string("incomplete feed")
                                     : leg.warnings.front())
             : leg.report.error));
  }
  return ok;
}

// ------------------------------------------------------------ references

/// Checks that the decision lines of `log` are exactly the switched steps
/// of the batch run, with equal time, actuations and powers.
void check_decisions(const std::vector<std::string>& log,
                     const sim::SimulationResult& batch,
                     const std::string& label, Outcome& out) {
  std::size_t j = 0;
  bool ok = true;
  for (const std::string& line : log) {
    const util::json::Value v = util::json::parse(line);
    while (j < batch.steps.size() && !batch.steps[j].switched) ++j;
    if (v.at("event").as_string() != "decision" || j == batch.steps.size()) {
      ok = false;
      break;
    }
    const sim::StepRecord& s = batch.steps[j++];
    ok = v.at("time_s").as_number() == s.time_s &&
         v.at("switch_actuations").as_number() ==
             static_cast<double>(s.switch_actuations) &&
         v.at("gross_power_w").as_number() == s.gross_power_w &&
         v.at("net_power_w").as_number() == s.net_power_w;
    if (!ok) break;
  }
  while (ok && j < batch.steps.size()) ok = !batch.steps[j++].switched;
  out.expect(ok, label + ": stream decision lines differ from run_simulation");
}

sim::SimulationResult batch_reference(sim::StreamConfig config,
                                      const StreamInputs& in) {
  const std::unique_ptr<core::Reconfigurer> controller =
      sim::make_stream_controller(config);
  return sim::run_simulation(*controller, in.trace, config.sim);
}

// --------------------------------------------------------- traced mirror

struct MirrorSpans {
  double parse_s = 0.0;
  double step_s = 0.0;
  double emit_s = 0.0;
  double checkpoint_s = 0.0;
  double loop_s = 0.0;
  double wall_s = 0.0;
  std::size_t samples = 0;   ///< new samples stepped
  std::size_t replayed = 0;  ///< replayed lines skipped after a resume
  std::vector<double> encode_ms;
  std::vector<double> write_ms;
  std::vector<double> checkpoint_bytes;
  std::vector<double> decode_ms;
  std::size_t emit_lines = 0;
  std::size_t emit_bytes = 0;
};

util::json::Value decision_line(const std::string& array,
                                const sim::StepRecord& rec,
                                const std::vector<std::size_t>& group_starts) {
  util::json::Object obj;
  obj.emplace_back("array", array);
  obj.emplace_back("event", "decision");
  obj.emplace_back("time_s", rec.time_s);
  util::json::Array groups;
  groups.reserve(group_starts.size());
  for (std::size_t s : group_starts) groups.emplace_back(s);
  obj.emplace_back("group_starts", std::move(groups));
  obj.emplace_back("switch_actuations", rec.switch_actuations);
  obj.emplace_back("gross_power_w", rec.gross_power_w);
  obj.emplace_back("net_power_w", rec.net_power_w);
  return util::json::Value(std::move(obj));
}

/// The server's per-array loop (sim/stream_server.cpp), driven from here
/// with spans around each public call.  Returns the stepper's result.
sim::SimulationResult run_mirror_leg(const sim::StreamConfig& config,
                                     const StreamInputs& in,
                                     std::size_t data_count,
                                     const std::string& ckpt_path, bool resume,
                                     std::vector<std::string>& log,
                                     ControllerProbe& cp, PredictorProbe& pp,
                                     MirrorSpans& spans, Outcome& out) {
  const Clock::time_point start = Clock::now();
  const std::string fingerprint_text = sim::stream_config_fingerprint_text(config);
  const std::unique_ptr<core::Reconfigurer> controller =
      make_traced_controller(config, cp, pp);
  sim::SimStepper stepper(*controller, config.dt_s, config.num_modules,
                          config.sim);
  std::vector<std::string> log_lines;
  std::size_t steps_at_checkpoint = 0;

  const auto save_checkpoint = [&] {
    Clock::time_point t0 = Clock::now();
    const std::string content =
        sim::encode_checkpoint(stepper.state(), fingerprint_text, log_lines);
    const Clock::time_point t1 = Clock::now();
    util::AtomicWriteOptions write_options;
    write_options.fault_site = "stream.checkpoint";
    util::atomic_write_file(ckpt_path, content, write_options);
    const Clock::time_point t2 = Clock::now();
    steps_at_checkpoint = stepper.steps_consumed();
    spans.encode_ms.push_back(seconds_between(t0, t1) * 1e3);
    spans.write_ms.push_back(seconds_between(t1, t2) * 1e3);
    spans.checkpoint_bytes.push_back(static_cast<double>(content.size()));
    return seconds_between(t0, t2);
  };

  sim::TelemetryOptions telemetry;
  telemetry.dt_s = config.dt_s;
  telemetry.num_modules = config.num_modules;
  if (resume) {
    const std::optional<std::string> text = util::read_file_if_exists(ckpt_path);
    if (!text) throw std::runtime_error("traced resume: checkpoint missing");
    const Clock::time_point t0 = Clock::now();
    const sim::DecodedCheckpoint decoded =
        sim::decode_checkpoint(*text, fingerprint_text);
    spans.decode_ms.push_back(seconds_since(t0) * 1e3);
    stepper.restore_state(decoded.state);
    log_lines = decoded.extra_lines;
    telemetry.epoch_s = 0.0;
    telemetry.start_index = stepper.steps_consumed();
    log = log_lines;
  }

  std::vector<Clock::time_point> stamps;
  stamps.reserve(data_count + 2);
  sim::LineTelemetrySource source(
      std::make_unique<ScriptedFeed>(in.lines, data_count + 1, &stamps),
      telemetry);
  const Clock::time_point loop_start = Clock::now();
  while (true) {
    Clock::time_point t0 = Clock::now();
    sim::TelemetryEvent event = source.poll();
    spans.parse_s += seconds_since(t0);
    out.expect(event.issues.empty(), "traced run: unexpected telemetry issue");
    if (event.kind == sim::TelemetryEvent::Kind::kEnd) break;
    if (event.kind != sim::TelemetryEvent::Kind::kSample) {
      throw std::runtime_error("traced run: closed-loop feed went idle");
    }
    t0 = Clock::now();
    const sim::StepRecord rec = stepper.step(event.sample);
    spans.step_s += seconds_since(t0);
    ++spans.samples;
    if (rec.switched) {
      t0 = Clock::now();
      std::string line = util::json::dump(
          decision_line("main", rec, stepper.current_group_starts()));
      log.push_back(line);
      spans.emit_bytes += line.size();
      ++spans.emit_lines;
      log_lines.push_back(std::move(line));
      spans.emit_s += seconds_since(t0);
    }
    if (!ckpt_path.empty() &&
        stepper.steps_consumed() - steps_at_checkpoint >= kCkptEvery) {
      spans.checkpoint_s += save_checkpoint();
    }
  }
  spans.loop_s += seconds_since(loop_start);
  if (!ckpt_path.empty()) save_checkpoint();
  spans.replayed += source.replayed();
  spans.wall_s += seconds_since(start);
  return stepper.result();
}

void publish_mirror(const MirrorSpans& s, const ControllerProbe& cp,
                    const StreamInputs& in, Outcome& out) {
  const double lines_parsed = static_cast<double>(s.samples + s.replayed);
  out.set("telemetry.parse_us_per_sample",
          lines_parsed > 0 ? s.parse_s / lines_parsed * 1e6 : 0.0, "us");
  out.set("telemetry.bytes_per_sample",
          static_cast<double>(in.data_bytes) /
              static_cast<double>(in.trace.num_steps()),
          "B");
  out.set("telemetry.replayed_lines", static_cast<double>(s.replayed), "count");
  out.set("stepper.self_us_per_step",
          s.samples > 0
              ? (s.step_s - cp.update_s) / static_cast<double>(s.samples) * 1e6
              : 0.0,
          "us");
  out.set("emit.lines", static_cast<double>(s.emit_lines), "count");
  out.set("emit.bytes", static_cast<double>(s.emit_bytes), "B");
  out.set("checkpoint.encode_ms_p50", median(s.encode_ms), "ms");
  out.set("checkpoint.encode_ms_max", percentile(s.encode_ms, 1.0), "ms");
  out.set("checkpoint.write_ms_p50", median(s.write_ms), "ms");
  out.set("checkpoint.bytes_max", percentile(s.checkpoint_bytes, 1.0), "B");
  double bytes_total = 0.0;
  for (double b : s.checkpoint_bytes) bytes_total += b;
  out.set("checkpoint.bytes_total", bytes_total, "B");
  out.set("checkpoint.count", static_cast<double>(s.checkpoint_bytes.size()),
          "count");
  out.set("checkpoint.decode_ms", mean(s.decode_ms), "ms");
  const double attributed = s.parse_s + s.step_s + s.emit_s + s.checkpoint_s;
  out.set("trace.unattributed_frac",
          s.loop_s > 0.0 ? std::max(0.0, 1.0 - attributed / s.loop_s) : 0.0,
          "ratio");
}

void publish_process(std::uint64_t allocations, std::size_t steps,
                     double traced_s, double untraced_s, Outcome& out) {
  out.set("process.allocs_per_step",
          steps == 0 ? 0.0
                     : static_cast<double>(allocations) /
                           static_cast<double>(steps),
          "count");
  out.set("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio");
}

void publish_scheme_latency(
    const std::map<sim::StreamScheme, Episodes>& episodes, Outcome& out) {
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (sim::StreamScheme scheme : kKiloSchemes) {
    const std::string name = sim::stream_scheme_name(scheme);
    const auto it = episodes.find(scheme);
    if (it == episodes.end()) continue;
    out.set("step_p50_us." + name, it->second.best_p50(), "us");
    out.set("step_p99_us." + name, it->second.best_p99(), "us");
    p50s.push_back(it->second.best_p50());
    p99s.push_back(it->second.best_p99());
    out.notes.push_back(it->second.summary(name));
  }
  out.set("step_p50_us", geomean(p50s), "us");
  out.set("step_p99_us", geomean(p99s), "us");
}

std::string fresh_dir(const RunContext& ctx, const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(ctx.scratch_dir) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace

// ------------------------------------------------------ stream_ckpt_hour

void run_stream_ckpt_hour(const RunContext& ctx, Outcome& out) {
  thermal::TraceGeneratorConfig gen = thermal::scenario("porter_800s");
  gen.layout.num_modules = kCkptModules;
  gen.seed = 1000 + ctx.seed;
  // Five laps of the 800 s drive, cut to one hour.
  const std::vector<thermal::DriveSegment> lap = gen.segments;
  for (int i = 1; i < 5; ++i) {
    gen.segments.insert(gen.segments.end(), lap.begin(), lap.end());
  }
  const sim::StreamScheme scheme = sim::StreamScheme::kDnor;
  const StreamInputs in = timed_setup(out, [&] {
    StreamInputs made = make_inputs(gen, kCkptSteps);
    (void)sim::make_stream_controller(stream_config(scheme, made));
    return made;
  });
  const sim::StreamConfig config = stream_config(scheme, in);
  const std::size_t mid = kCkptSteps / 2;
  out.notes.push_back("trace: " + std::to_string(kCkptModules) + " modules x " +
                      std::to_string(kCkptSteps) + " steps, " +
                      std::to_string(in.data_bytes / kCkptSteps) +
                      " B per telemetry line");

  // Timed region: episodes of [leg 1 to the midpoint, leg 2 resumed].
  Episodes hours(kCkptSteps);
  std::vector<std::vector<double>> intervals;  // per episode, both legs
  std::vector<double> resume_ms;
  std::vector<std::string> first_log;
  sim::SimulationResult first_result;
  double server_step_ms_sum = 0.0;
  std::size_t server_step_count = 0;
  std::uint64_t first_episode_allocs = 0;
  const Clock::time_point timed_start = Clock::now();
  for (std::size_t episode = 0;
       episode == 0 || seconds_since(timed_start) < ctx.seconds; ++episode) {
    const std::string dir = fresh_dir(ctx, "ckpt-" + std::to_string(episode));
    const std::string path = dir + "/main.ckpt";
    std::vector<std::string> log;
    log.reserve(kCkptSteps);
    ServerLeg leg1;
    ServerLeg leg2;
    run_server_leg(config, in, mid, path, /*resume=*/false, log, leg1);
    run_server_leg(config, in, kCkptSteps, path, /*resume=*/true, log, leg2);
    std::filesystem::remove_all(dir);
    const bool ok1 = leg_ok(leg1, mid, out, "leg 1");
    const bool ok2 = leg_ok(leg2, kCkptSteps, out, "leg 2");
    if (!ok1 || !ok2) break;
    std::vector<double> iterations;
    iterations.reserve(kCkptSteps);
    append_iterations(leg1, 0, mid, iterations);
    append_iterations(leg2, mid, kCkptSteps, iterations);
    hours.add(iterations, seconds_between(leg1.start, leg1.end) +
                              seconds_between(leg2.start, leg2.end));
    intervals.emplace_back();
    intervals.back().reserve(leg1.stamps.size() + leg2.stamps.size() + 2);
    append_intervals(leg1, intervals.back());
    append_intervals(leg2, intervals.back());
    resume_ms.push_back(seconds_between(leg2.start, leg2.stamps[mid + 2]) * 1e3);
    for (const ServerLeg* leg : {&leg1, &leg2}) {
      server_step_ms_sum += leg->report.step_latency_ms.mean() *
                            static_cast<double>(leg->report.step_latency_ms.count());
      server_step_count += leg->report.step_latency_ms.count();
    }
    out.expect(leg2.report.resumed && leg2.report.replayed == mid,
               "leg 2 did not resume from the midpoint checkpoint");
    if (episode == 0) {
      first_episode_allocs = leg1.allocations + leg2.allocations;
      first_log = std::move(log);
      first_result = std::move(leg2.report.result);
      out.set("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
      const std::string e = "episode " + std::to_string(episode);
      out.expect(log == first_log, e + ": log differs from episode 0");
      const std::string d = diff_results(leg2.report.result, first_result);
      out.expect(d.empty(), e + ": results differ from episode 0: " + d);
    }
  }
  if (hours.wall_s.empty()) return;

  // Throughput: each interval's median over the episodes, summed over the
  // hour.  A co-tenant burst slows one episode's stretch of the hour, and
  // the median sets it aside; every episode has the same intervals.
  double typical_hour_s = 0.0;
  std::vector<double> column(intervals.size());
  for (std::size_t i = 0; i < intervals.front().size(); ++i) {
    for (std::size_t e = 0; e < intervals.size(); ++e) column[e] = intervals[e][i];
    typical_hour_s += median(column);
  }
  out.set("steps_per_s", static_cast<double>(kCkptSteps) / typical_hour_s,
          "1/s");
  publish_scheme_latency({{scheme, hours}}, out);
  out.set("resume_ms", percentile(resume_ms, 0.0), "ms");

  // Correctness, outside the timed region: an uninterrupted server run and
  // run_simulation over the same trace.
  std::vector<std::string> ref_log;
  ServerLeg ref;
  run_server_leg(config, in, kCkptSteps, "", false, ref_log, ref);
  if (leg_ok(ref, kCkptSteps, out, "uninterrupted reference")) {
    const sim::SimulationResult batch = batch_reference(config, in);
    const std::string d = diff_results(ref.report.result, batch);
    out.expect(d.empty(), "uninterrupted stream vs run_simulation: " + d);
    check_decisions(ref_log, batch, "uninterrupted stream", out);
    out.expect(first_log == ref_log,
               "leg 1 + leg 2 log differs from the uninterrupted run");
    const std::string de = diff_results(first_result, batch);
    out.expect(de.empty(), "resumed totals vs run_simulation: " + de);
  }

  if (!ctx.trace) return;

  out.set("stepper.server_reported_step_us",
          server_step_ms_sum / static_cast<double>(server_step_count) * 1e3, "us");

  // Traced episode.
  const std::string dir = fresh_dir(ctx, "ckpt-traced");
  const std::string path = dir + "/main.ckpt";
  std::map<sim::StreamScheme, ControllerProbe> probes;
  std::vector<UpdateRecord> records;
  probes[scheme].records = &records;
  PredictorProbe pp;
  MirrorSpans spans;
  std::vector<std::string> log;
  run_mirror_leg(config, in, mid, path, false, log, probes[scheme], pp, spans,
                 out);
  const sim::SimulationResult traced2 = run_mirror_leg(
      config, in, kCkptSteps, path, true, log, probes[scheme], pp, spans, out);
  std::filesystem::remove_all(dir);
  out.expect(log == ref_log, "traced run: decision log differs from untraced run");
  const std::string d = diff_results(traced2, first_result);
  out.expect(d.empty(), "traced run vs untraced run: " + d);

  // Layer replay over the whole hour: leg 1's records, then leg 2's.
  LayerTotals layers;
  replay_layers(config, records, traced2.steps, 1, layers, out);
  publish_layers(layers, out);
  publish_mirror(spans, probes[scheme], in, out);
  publish_core(probes, out);
  publish_predictor(pp, out);
  out.set("thermal.generate_ms_per_seed", in.generate_s * 1e3, "ms");
  publish_process(first_episode_allocs, kCkptSteps, spans.wall_s,
                  median(hours.wall_s), out);
}

// ------------------------------------------------------------ stream_kilo

void run_stream_kilo(const RunContext& ctx, Outcome& out) {
  thermal::TraceGeneratorConfig gen = thermal::scenario("porter_800s");
  gen.layout.num_modules = kKiloModules;
  gen.seed = 1000 + ctx.seed;
  const StreamInputs in = timed_setup(out, [&] {
    StreamInputs made = make_inputs(gen, kKiloSteps);
    for (sim::StreamScheme scheme : kKiloSchemes) {
      (void)sim::make_stream_controller(stream_config(scheme, made));
    }
    return made;
  });
  out.notes.push_back("trace: " + std::to_string(kKiloModules) + " modules x " +
                      std::to_string(kKiloSteps) + " steps, " +
                      std::to_string(in.data_bytes / kKiloSteps) +
                      " B per telemetry line");

  // Timed region: one server run per episode.  Every scheme runs once,
  // then for --seconds the next episode goes to the scheme that has run
  // for the least time, so DNOR and INOR repeat while cold EHTR's one long
  // episode stands.
  std::map<sim::StreamScheme, Episodes> episodes;
  std::map<sim::StreamScheme, double> busy_s;
  std::map<sim::StreamScheme, std::vector<std::string>> logs;
  std::map<sim::StreamScheme, sim::SimulationResult> results;
  std::map<sim::StreamScheme, double> server_step_ms;
  std::uint64_t first_episode_allocs = 0;
  Clock::time_point timed_start = Clock::now();
  while (true) {
    sim::StreamScheme scheme = kKiloSchemes.front();
    const auto unrun = std::find_if(
        kKiloSchemes.begin(), kKiloSchemes.end(),
        [&](sim::StreamScheme s) { return busy_s.count(s) == 0; });
    if (unrun != kKiloSchemes.end()) {
      scheme = *unrun;
    } else if (seconds_since(timed_start) < ctx.seconds) {
      scheme = std::min_element(busy_s.begin(), busy_s.end(),
                                [](const auto& a, const auto& b) {
                                  return a.second < b.second;
                                })->first;
    } else {
      break;
    }
    const std::string name = sim::stream_scheme_name(scheme);
    std::vector<std::string> log;
    ServerLeg leg;
    run_server_leg(stream_config(scheme, in), in, kKiloSteps, "", false, log,
                   leg);
    if (!leg_ok(leg, kKiloSteps, out, name)) return;
    std::vector<double> iterations;
    append_iterations(leg, 0, kKiloSteps, iterations);
    const double wall = seconds_between(leg.start, leg.end);
    episodes[scheme].add(iterations, wall);
    if (busy_s.count(scheme) == 0) {
      first_episode_allocs += leg.allocations;
      logs[scheme] = std::move(log);
      results[scheme] = leg.report.result;
      server_step_ms[scheme] = leg.report.step_latency_ms.mean();
      if (busy_s.size() + 1 == kKiloSchemes.size()) {
        out.set("peak_rss_mb", peak_rss_mb(), "MB");  // every scheme has run
        // --seconds of repeats follow the first round, so cold EHTR's one
        // long episode does not crowd out DNOR's and INOR's windows.
        timed_start = Clock::now();
      }
    } else {
      out.expect(log == logs[scheme],
                 name + ": decision log differs between episodes");
    }
    busy_s[scheme] += wall;
  }

  // Each scheme weighs the same: cold EHTR's one episode would otherwise
  // decide the throughput alone.
  std::vector<double> best_rates;
  double median_wall_s = 0.0;
  for (const auto& [scheme, e] : episodes) {
    best_rates.push_back(static_cast<double>(kKiloSteps) / e.best_wall());
    median_wall_s += median(e.wall_s);
  }
  out.set("steps_per_s", geomean(best_rates), "1/s");
  publish_scheme_latency(episodes, out);

  // Correctness: each scheme's stream equals run_simulation.  EHTR's
  // reference runs the warm-started search, which the library guarantees
  // bit-identical to the cold search the stream uses.
  for (sim::StreamScheme scheme : kKiloSchemes) {
    sim::StreamConfig config = stream_config(scheme, in);
    if (scheme == sim::StreamScheme::kEhtr) config.sim.ehtr_warm_start = true;
    const sim::SimulationResult batch = batch_reference(config, in);
    const std::string name = sim::stream_scheme_name(scheme);
    const std::string d = diff_results(results[scheme], batch);
    out.expect(d.empty(), name + " stream vs run_simulation: " + d);
    check_decisions(logs[scheme], batch, name + " stream", out);
  }

  if (!ctx.trace) return;

  double reported_sum = 0.0;
  for (const auto& [scheme, ms] : server_step_ms) reported_sum += ms;
  out.set("stepper.server_reported_step_us",
          reported_sum / static_cast<double>(server_step_ms.size()) * 1e3, "us");

  // Traced episode: every scheme through the mirrored loop.
  std::map<sim::StreamScheme, ControllerProbe> probes;
  PredictorProbe pp;
  MirrorSpans spans;
  LayerTotals layers;
  for (sim::StreamScheme scheme : kKiloSchemes) {
    const sim::StreamConfig config = stream_config(scheme, in);
    std::vector<UpdateRecord> records;
    ControllerProbe& probe = probes[scheme];
    probe.records = &records;
    std::vector<std::string> log;
    const sim::SimulationResult traced =
        run_mirror_leg(config, in, kKiloSteps, "", false, log, probe, pp, spans,
                       out);
    probe.records = nullptr;
    const std::string name = sim::stream_scheme_name(scheme);
    out.expect(log == logs[scheme],
               name + " traced run: decision log differs from untraced run");
    const std::string d = diff_results(traced, results[scheme]);
    out.expect(d.empty(), name + " traced run vs untraced run: " + d);
    replay_layers(config, records, traced.steps, kKiloEhtrReplayStride, layers,
                  out);
  }
  publish_layers(layers, out);
  publish_mirror(spans, ControllerProbe{}, in, out);
  double update_s = 0.0;
  for (const auto& [scheme, probe] : probes) update_s += probe.update_s;
  out.set("stepper.self_us_per_step",
          (spans.step_s - update_s) / static_cast<double>(spans.samples) * 1e6,
          "us");
  publish_core(probes, out);
  publish_predictor(pp, out);
  out.set("thermal.generate_ms_per_seed", in.generate_s * 1e3, "ms");
  publish_process(first_episode_allocs, kKiloSteps * kKiloSchemes.size(),
                  spans.wall_s, median_wall_s, out);
}

}  // namespace tegbench
