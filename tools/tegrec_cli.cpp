// tegrec_cli — command-line front end for the library.
//
//   tegrec_cli scenarios
//   tegrec_cli trace      --out trace.csv [--scenario NAME] [--seed S]
//                         [--modules N] [--duration T]
//   tegrec_cli simulate   [--trace F | --spec F | --scenario NAME]
//                         [--scheme dnor|inor|ehtr|baseline|all]
//                         [--threads W] [--max-groups G] [--cache DIR]
//   tegrec_cli predict    --trace trace.csv [--method mlr|bpnn|svr|holt]
//                         [--horizon H]
//   tegrec_cli montecarlo [--scenario NAME] [--seeds K] [--first-seed S]
//                         [--modules N] [--duration T] [--threads W]
//                         [--cache DIR]
//   tegrec_cli batch      --specs <dir-or-file> [--jobs J] [--cache DIR]
//                         [--json] [--spool DIR ...]
//   tegrec_cli worker     --spool DIR --cache DIR [--owner ID] ...
//   tegrec_cli stream     [--array NAME=stdin|tail:PATH|tcp:PORT ...]
//                         [--scheme S] [--dt T] [--modules N] [--out FILE]
//                         [--checkpoint DIR [--resume]] ...
//
// `scenarios` lists the named workload library (thermal/scenario.hpp);
// `trace` synthesises a workload and writes the per-module temperature CSV;
// `simulate` replays a trace (CSV, spec file, named scenario, or the
// built-in default) through the chosen controller(s) and prints the Table-I
// style summary; `predict` scores a predictor on the CSV; `montecarlo` runs
// the multi-core DNOR-vs-baseline study across seeds; `batch` runs a whole
// directory of ExperimentSpec files concurrently through one
// ExperimentService, with per-job progress on stderr and a machine-readable
// summary (--json) on stdout.  With --spool, `batch` becomes the producer
// side of the crash-safe multi-process farm (docs/farm.md): specs are
// enqueued onto the spool directory and results collected from the shared
// artifact store, while any number of `worker` processes — on this machine
// or others sharing the filesystem — claim, execute, and publish jobs;
// workers drain gracefully on SIGTERM/SIGINT and recover each other's
// crashes via lease reclaim.  `stream` is the live mode (docs/streaming.md):
// one or more named arrays, each fed CSV telemetry from stdin, a tailed
// file, or a loopback TCP port, are tracked incrementally through
// sim::StreamServer; reconfiguration decisions stream out as JSONL, and
// with --checkpoint the full state (decision log included) survives
// SIGTERM and even SIGKILL via --resume.  Anywhere a `--scenario` is
// accepted the
// resulting spec carries the scenario name into its canonical text, so
// repeated runs of the same scenario are cache hits.
//
// Flag values are parsed with util::parse — a non-numeric or trailing-junk
// value (`--seeds abc`, `--duration 10x`) is an error, never a silent zero —
// and unknown flags are rejected instead of ignored.
// GCC 12's -O3 middle end raises false-positive -Warray-bounds/-Wrestrict
// reports from the inlined reallocation of std::vector<std::pair<std::string,
// json::Value>> (the batch summary's Object growth; GCC PR105329 family).
// The library itself compiles clean — suppress for this tool TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "predict/bpnn.hpp"
#include "predict/evaluate.hpp"
#include "predict/holt.hpp"
#include "predict/mlr.hpp"
#include "predict/svr.hpp"
#include "sim/artifact_store.hpp"
#include "sim/experiment.hpp"
#include "sim/result_io.hpp"
#include "sim/results.hpp"
#include "sim/service.hpp"
#include "sim/spec.hpp"
#include "sim/spool.hpp"
#include "sim/stream_server.hpp"
#include "sim/telemetry.hpp"
#include "thermal/scenario.hpp"
#include "thermal/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/mutex.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace {

using namespace tegrec;

// ------------------------------------------------------------------ flags

using FlagMap = std::map<std::string, std::string>;

/// --key value parser with an explicit vocabulary: `value_flags` take one
/// argument, `bool_flags` take none (stored as "1").  Anything else — an
/// unknown flag, a missing value, a stray positional — is an error.
FlagMap parse_flags(int argc, char** argv, int first,
                    const std::set<std::string>& value_flags,
                    const std::set<std::string>& bool_flags = {}) {
  FlagMap flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected a --flag, got '" + arg + "'");
    }
    const std::string key = arg.substr(2);
    if (bool_flags.count(key)) {
      flags[key] = "1";
      continue;
    }
    if (!value_flags.count(key)) {
      std::string known;
      for (const auto& k : value_flags) known += " --" + k;
      for (const auto& k : bool_flags) known += " --" + k;
      throw std::invalid_argument("unknown flag '" + arg + "' (accepted:" +
                                  known + ")");
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("flag '" + arg + "' needs a value");
    }
    flags[key] = argv[++i];
  }
  return flags;
}

std::string flag_or(const FlagMap& flags, const std::string& key,
                    const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

double flag_double(const FlagMap& flags, const std::string& key,
                   double fallback) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  try {
    return util::parse_double(it->second);
  } catch (const std::exception& e) {
    throw std::invalid_argument("--" + key + ": " + e.what());
  }
}

std::uint64_t flag_u64(const FlagMap& flags, const std::string& key,
                       std::uint64_t fallback) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  try {
    return util::parse_u64(it->second);
  } catch (const std::exception& e) {
    throw std::invalid_argument("--" + key + ": " + e.what());
  }
}

std::size_t flag_size(const FlagMap& flags, const std::string& key,
                      std::size_t fallback) {
  return static_cast<std::size_t>(
      flag_u64(flags, key, static_cast<std::uint64_t>(fallback)));
}

double positive_duration(const FlagMap& flags, double fallback) {
  const double duration = flag_double(flags, "duration", fallback);
  if (duration <= 0.0) {
    throw std::invalid_argument("--duration must be positive");
  }
  return duration;
}

sim::ServiceOptions service_options(const FlagMap& flags,
                                    std::size_t num_workers) {
  sim::ServiceOptions options;
  options.num_workers = num_workers;
  options.cache_dir = flag_or(flags, "cache", "");
  return options;
}

// --------------------------------------------------------------- commands

int cmd_scenarios(const FlagMap&) {
  util::TextTable table({"scenario", "description"});
  for (const auto& info : thermal::scenario_catalog()) {
    table.begin_row().add(info.name).add(info.description);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("use with: tegrec_cli simulate|trace|montecarlo --scenario "
              "NAME, or `trace.scenario = NAME` in a spec file\n");
  return 0;
}

int cmd_trace(const FlagMap& flags) {
  thermal::TraceGeneratorConfig config;
  const std::string scenario_name = flag_or(flags, "scenario", "");
  if (!scenario_name.empty()) {
    config = thermal::scenario(scenario_name);
    if (flags.count("duration")) {
      throw std::invalid_argument(
          "--duration scales the default cycle; a --scenario fixes its own "
          "schedule");
    }
  }
  config.seed = flag_u64(flags, "seed", config.seed);
  config.layout.num_modules =
      flag_size(flags, "modules", config.layout.num_modules);
  const double duration = positive_duration(flags, 800.0);
  if (scenario_name.empty() && duration != 800.0) {
    // Scale the default cycle's segments proportionally.
    auto segments = thermal::default_porter_cycle();
    for (auto& s : segments) s.duration_s *= duration / 800.0;
    config.segments = std::move(segments);
  }
  const thermal::TemperatureTrace trace = thermal::generate_trace(config);
  const std::string out = flag_or(flags, "out", "trace.csv");
  trace.save_csv(out);
  std::printf("wrote %zu steps x %zu modules (%.0f s) to %s\n", trace.num_steps(),
              trace.num_modules(), trace.duration_s(), out.c_str());
  return 0;
}

int cmd_simulate(const FlagMap& flags) {
  sim::ExperimentSpec spec;
  const std::string spec_path = flag_or(flags, "spec", "");
  const std::string trace_path = flag_or(flags, "trace", "");
  const std::string scenario_name = flag_or(flags, "scenario", "");
  if (static_cast<int>(!spec_path.empty()) +
          static_cast<int>(!trace_path.empty()) +
          static_cast<int>(!scenario_name.empty()) >
      1) {
    throw std::invalid_argument(
        "--spec, --trace and --scenario are mutually exclusive");
  }
  if (!spec_path.empty()) {
    spec = sim::ExperimentSpec::from_file(spec_path);
    if (spec.kind != sim::ExperimentKind::kComparison) {
      throw std::invalid_argument("simulate runs comparison specs; use "
                                  "`tegrec_cli batch` for other kinds");
    }
  } else if (!trace_path.empty()) {
    spec.trace.kind = sim::TraceSource::Kind::kCsvFile;
    spec.trace.csv_path = trace_path;
  } else if (!scenario_name.empty()) {
    spec.trace = sim::scenario_source(scenario_name);
  }  // else: the default generated trace (TraceGeneratorConfig defaults)

  spec.kind = sim::ExperimentKind::kComparison;
  // Flags override the spec file; unset flags keep its values (which are
  // the library defaults when no --spec was given).
  spec.comparison.sim.num_threads =
      flag_size(flags, "threads", spec.comparison.sim.num_threads);
  spec.comparison.sim.ehtr_max_groups =
      flag_size(flags, "max-groups", spec.comparison.sim.ehtr_max_groups);
  if (flags.count("scheme")) {  // only an explicit flag overrides the spec
    // `stream`'s scheme names plus "all", so a bad name fails the same way.
    const std::string& scheme = flags.at("scheme");
    const bool all = scheme == "all";
    const sim::StreamScheme one =
        all ? sim::StreamScheme::kDnor : sim::parse_stream_scheme(scheme);
    spec.comparison.include_dnor = all || one == sim::StreamScheme::kDnor;
    spec.comparison.include_inor = all || one == sim::StreamScheme::kInor;
    spec.comparison.include_ehtr = all || one == sim::StreamScheme::kEhtr;
    spec.comparison.include_baseline =
        all || one == sim::StreamScheme::kBaseline;
  }

  sim::ExperimentService service(service_options(flags, /*num_workers=*/1));
  const sim::JobHandle job = service.submit(spec);
  const auto result = job.wait();
  std::printf("%s\n", sim::render_table1(result->comparison.runs).c_str());
  std::fprintf(stderr, "[job %s: %s]\n", job.fingerprint().c_str(),
               job.from_cache() ? "cache hit" : "executed");
  return 0;
}

int cmd_predict(const FlagMap& flags) {
  const std::string path = flag_or(flags, "trace", "");
  const thermal::TemperatureTrace trace =
      path.empty() ? thermal::default_experiment_trace()
                   : sim::load_trace_csv(path);
  const std::string method = flag_or(flags, "method", "mlr");
  const double horizon_s = flag_double(flags, "horizon", 1.0);

  std::unique_ptr<predict::Predictor> predictor;
  if (method == "mlr") {
    predictor = std::make_unique<predict::MlrPredictor>();
  } else if (method == "bpnn") {
    predict::BpnnParams p;
    p.epochs = 8;
    p.module_stride = 5;
    predictor = std::make_unique<predict::BpnnPredictor>(p);
  } else if (method == "svr") {
    predict::SvrParams p;
    p.iterations = 120;
    p.module_stride = 5;
    predictor = std::make_unique<predict::SvrPredictor>(p);
  } else if (method == "holt") {
    predictor = std::make_unique<predict::HoltPredictor>();
  } else {
    std::fprintf(stderr, "unknown method '%s'\n", method.c_str());
    return 1;
  }

  predict::EvaluationOptions options;
  options.window = 30;
  options.horizon_steps = std::max<std::size_t>(
      1, static_cast<std::size_t>(horizon_s / trace.dt_s()));
  const auto res = predict::evaluate_online(*predictor, trace, options);
  std::printf("%s @ %.1f s horizon: mean MAPE %.4f %%, max %.4f %%, "
              "fit %.3f ms, predict %.3f ms\n",
              res.predictor_name.c_str(), horizon_s, res.mean_mape_percent,
              res.max_mape_percent, res.mean_fit_time_ms, res.mean_predict_time_ms);
  return 0;
}

int cmd_montecarlo(const FlagMap& flags) {
  sim::ExperimentSpec spec;
  spec.kind = sim::ExperimentKind::kMonteCarlo;
  const std::string scenario_name = flag_or(flags, "scenario", "");
  if (!scenario_name.empty()) {
    if (flags.count("duration")) {
      throw std::invalid_argument(
          "--duration shapes the built-in study; a --scenario fixes its own "
          "schedule");
    }
    spec.trace = sim::scenario_source(scenario_name);
    spec.trace.generator.layout.num_modules =
        flag_size(flags, "modules", spec.trace.generator.layout.num_modules);
  } else {
    spec.trace.generator.seed = 0;  // immaterial: the engine re-seeds per sample
    spec.trace.generator.layout.num_modules = flag_size(flags, "modules", 100);
    const double duration = positive_duration(flags, 200.0);
    // Short mixed slice per seed, urban then cruise, scaled to --duration.
    spec.trace.generator.segments = {
        {thermal::DriveSegment::Kind::kUrban, duration / 2.0, 32.0, 0.0},
        {thermal::DriveSegment::Kind::kCruise, duration / 2.0, 70.0, 0.0}};
  }
  spec.comparison.include_inor = false;
  spec.comparison.include_ehtr = false;
  spec.mc_num_seeds = flag_size(flags, "seeds", 10);
  spec.mc_first_seed = flag_u64(flags, "first-seed", 100);
  spec.mc_num_threads = flag_size(flags, "threads", 0);

  sim::ExperimentService service(service_options(flags, /*num_workers=*/1));
  const sim::JobHandle job = service.submit(spec);
  const sim::MonteCarloSummary& summary = job.wait()->monte_carlo;

  util::TextTable table({"seed", "DNOR (J)", "Baseline (J)", "gain %"});
  for (const auto& s : summary.samples) {
    table.begin_row()
        .add(static_cast<long long>(s.seed))
        .add(s.dnor_energy_j, 1)
        .add(s.baseline_energy_j, 1)
        .add(100.0 * s.gain, 1);
  }
  std::printf("%s\n", table.render().c_str());
  // Seeds whose fixed baseline harvested nothing have no defined gain
  // (their rows read "nan"); they are left out of the aggregate rather
  // than folded in as zeros.
  const std::size_t defined = summary.gain.count();
  if (defined == 0) {
    std::printf("gain over %zu drives: undefined (baseline harvested 0 J "
                "on every seed)\n",
                summary.samples.size());
  } else {
    std::string qualifier;
    if (defined != summary.samples.size()) {
      qualifier = " (" + std::to_string(defined) + " with defined gain)";
    }
    std::printf("gain over %zu drives%s: mean %.1f %%, sd %.1f %%, "
                "range [%.1f, %.1f] %%\n",
                summary.samples.size(), qualifier.c_str(),
                100.0 * summary.gain.mean(), 100.0 * summary.gain.stddev(),
                100.0 * summary.gain.min(), 100.0 * summary.gain.max());
  }
  std::fprintf(stderr, "[job %s: %s]\n", job.fingerprint().c_str(),
               job.from_cache() ? "cache hit" : "executed");
  return 0;
}

// ------------------------------------------------------------------ batch

/// Finite numbers pass through; non-finite ones become JSON null (dump()
/// rejects NaN/Inf, and a null is more honest than a sentinel).
util::json::Value json_num(double v) {
  return std::isfinite(v) ? util::json::Value(v) : util::json::Value();
}

const char* kind_name(sim::ExperimentKind kind) {
  switch (kind) {
    case sim::ExperimentKind::kComparison: return "comparison";
    case sim::ExperimentKind::kMonteCarlo: return "montecarlo";
    case sim::ExperimentKind::kSweep: return "sweep";
  }
  return "?";
}

util::json::Value stats_json(const util::RunningStats& stats) {
  // An empty statistic (e.g. every seed's gain was undefined) must read as
  // null, not as RunningStats' 0.0 defaults — a machine consumer would
  // take those for a measured zero.
  if (stats.count() == 0) {
    return util::json::Object{{"count", 0},
                              {"mean", util::json::Value()},
                              {"stddev", util::json::Value()},
                              {"min", util::json::Value()},
                              {"max", util::json::Value()}};
  }
  return util::json::Object{{"count", stats.count()},
                            {"mean", json_num(stats.mean())},
                            {"stddev", json_num(stats.stddev())},
                            {"min", json_num(stats.min())},
                            {"max", json_num(stats.max())}};
}

util::json::Value result_json(const sim::ExperimentResult& result) {
  switch (result.kind) {
    case sim::ExperimentKind::kComparison: {
      util::json::Array runs;
      for (const auto& run : result.comparison.runs) {
        runs.push_back(util::json::Object{
            {"algorithm", run.algorithm},
            {"energy_output_j", json_num(run.energy_output_j)},
            {"switch_overhead_j", json_num(run.switch_overhead_j)},
            {"ratio_to_ideal", json_num(run.ratio_to_ideal())}});
      }
      return util::json::Object{{"runs", std::move(runs)}};
    }
    case sim::ExperimentKind::kMonteCarlo:
      return util::json::Object{
          {"num_seeds", result.monte_carlo.samples.size()},
          {"gain", stats_json(result.monte_carlo.gain)},
          {"dnor_energy_j", stats_json(result.monte_carlo.dnor_energy_j)}};
    case sim::ExperimentKind::kSweep: {
      util::json::Array points;
      for (const auto& p : result.sweep) {
        points.push_back(util::json::Object{
            {"value", json_num(p.value)},
            {"dnor_energy_j", json_num(p.dnor_energy_j)},
            {"baseline_energy_j", json_num(p.baseline_energy_j)},
            {"gain", json_num(p.gain)},
            {"dnor_ratio_to_ideal", json_num(p.dnor_ratio_to_ideal)}});
      }
      return util::json::Object{{"points", std::move(points)}};
    }
  }
  return {};
}

std::vector<std::string> collect_spec_files(const std::string& path) {
  namespace fs = std::filesystem;
  if (!fs::exists(path)) {
    throw std::invalid_argument("--specs: no such file or directory: " + path);
  }
  if (fs::is_regular_file(path)) return {path};
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(path)) {
    if (entry.is_regular_file() && entry.path().extension() == ".spec") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    throw std::invalid_argument("--specs: no *.spec files in " + path);
  }
  return files;
}

// ------------------------------------------------------- spool farm modes

/// Graceful-stop flag for the long-running modes (`worker` drains the job
/// in flight; `stream` writes a final checkpoint): SIGTERM/SIGINT set it,
/// the run loop polls it.  (Lock-free store from the handler is
/// async-signal safe; everything else happens on the worker threads.)
std::atomic<bool> g_stop_requested{false};

extern "C" void stop_request_handler(int) {
  g_stop_requested.store(true, std::memory_order_relaxed);
}

std::string default_owner() {
#if defined(__unix__) || defined(__APPLE__)
  return "pid-" + std::to_string(static_cast<long>(::getpid()));
#else
  return "worker";
#endif
}

sim::SpoolQueue open_spool(const FlagMap& flags) {
  sim::SpoolOptions options;
  options.root = flag_or(flags, "spool", "");
  if (options.root.empty()) throw std::invalid_argument("missing --spool DIR");
  options.stale_after_ms = flag_u64(flags, "stale-ms", options.stale_after_ms);
  options.max_attempts =
      flag_size(flags, "max-attempts", options.max_attempts);
  return sim::SpoolQueue(std::move(options));
}

sim::ArtifactStoreOptions spool_store_options(const FlagMap& flags) {
  sim::ArtifactStoreOptions options;
  options.dir = flag_or(flags, "cache", "");
  if (options.dir.empty()) {
    throw std::invalid_argument(
        "missing --cache DIR (the spool farm publishes results to a shared "
        "artifact store)");
  }
  options.max_bytes = flag_u64(flags, "cache-max-bytes", 0);
  return options;
}

int cmd_worker(const FlagMap& flags) {
  sim::SpoolQueue queue = open_spool(flags);
  sim::ArtifactStore store(spool_store_options(flags));
  store.maintenance();  // GC temp orphans / trim an over-cap store upfront
  queue.maintenance();  // ...and sweep crashed writers' temps off the spool

  sim::SpoolWorkerOptions options;
  options.owner = flag_or(flags, "owner", default_owner());
  options.heartbeat_ms = flag_u64(flags, "heartbeat-ms", options.heartbeat_ms);
  options.poll_ms = flag_u64(flags, "poll-ms", options.poll_ms);
  options.idle_exit_ms = flag_u64(flags, "idle-exit-ms", 0);
  options.max_jobs = flag_size(flags, "max-jobs", 0);
  options.stop_flag = &g_stop_requested;

  std::signal(SIGTERM, stop_request_handler);
  std::signal(SIGINT, stop_request_handler);

  std::fprintf(stderr, "worker %s: spool %s, store %s\n",
               options.owner.c_str(), queue.root().c_str(),
               store.dir().c_str());
  sim::SpoolWorker worker(queue, store, options);
  const sim::SpoolWorkerStats stats = worker.run();
  std::fprintf(stderr,
               "worker %s: %llu completed (%llu executed, %llu store hits), "
               "%llu failed attempts, %llu reclaimed%s\n",
               options.owner.c_str(),
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.executed),
               static_cast<unsigned long long>(stats.store_hits),
               static_cast<unsigned long long>(stats.failures),
               static_cast<unsigned long long>(stats.reclaimed),
               g_stop_requested.load(std::memory_order_relaxed) ? " (drained)"
                                                                : "");
  return 0;
}

// ----------------------------------------------------------------- stream

/// The `stream` subcommand's shared JSONL sink.  File-backed (--out) or
/// stdout; either way the full line history is kept in memory so that a
/// resume can rewrite a file sink to exactly the checkpointed log prefix
/// (docs/streaming.md).  Thread-safe: resumes and emissions may race
/// across array threads.
class StreamSink {
 public:
  /// Empty path streams to stdout.  A file sink opens truncating: under
  /// --resume the restored log is re-written through restore() before any
  /// new line lands, so truncation never loses checkpointed history.
  explicit StreamSink(std::string path) : path_(std::move(path)) {
    if (path_.empty()) return;
    out_.open(path_, std::ios::trunc);
    if (!out_) {
      throw std::invalid_argument("--out: cannot open " + path_);
    }
  }

  void emit(const std::string& line) {
    util::MutexLock lock(mutex_);
    lines_.push_back(line);
    if (path_.empty()) {
      std::printf("%s\n", line.c_str());
      std::fflush(stdout);
    } else {
      out_ << line << '\n';
      out_.flush();
    }
  }

  /// Splices an array's restored decision log in front of everything this
  /// process has emitted and rewrites a file sink atomically to match, so
  /// the on-disk log reads exactly as one uninterrupted run.  On stdout
  /// the restored lines are simply printed (at-least-once delivery: a
  /// consumer that saw them before the crash sees them again).
  void restore(const std::vector<std::string>& restored) {
    util::MutexLock lock(mutex_);
    lines_.insert(lines_.begin(), restored.begin(), restored.end());
    if (path_.empty()) {
      for (const std::string& line : restored) {
        std::printf("%s\n", line.c_str());
      }
      std::fflush(stdout);
      return;
    }
    out_.close();
    std::string content;
    for (const std::string& line : lines_) {
      content += line;
      content += '\n';
    }
    util::atomic_write_file(path_, content);
    out_.open(path_, std::ios::app);
    if (!out_) {
      throw std::runtime_error("--out: cannot reopen " + path_);
    }
  }

 private:
  util::Mutex mutex_;
  std::string path_;
  std::ofstream out_;
  std::vector<std::string> lines_;
};

/// `--array NAME=SOURCE` sources: `stdin`, `tail:PATH`, `tcp:PORT`.
std::unique_ptr<sim::ByteFeed> make_stream_feed(const std::string& source,
                                                bool& stdin_taken) {
  if (source == "stdin") {
    if (stdin_taken) {
      throw std::invalid_argument("only one array can read stdin");
    }
    stdin_taken = true;
    return std::make_unique<sim::PipeFeed>();
  }
  if (source.rfind("tail:", 0) == 0) {
    return std::make_unique<sim::FileTailFeed>(source.substr(5));
  }
  if (source.rfind("tcp:", 0) == 0) {
    const std::uint64_t port = util::parse_u64(source.substr(4));
    if (port > 65535) {
      throw std::invalid_argument("tcp port out of range: " + source);
    }
    return std::make_unique<sim::TcpLineFeed>(static_cast<std::uint16_t>(port));
  }
  throw std::invalid_argument("array source '" + source +
                              "' (use stdin, tail:PATH, or tcp:PORT)");
}

int cmd_stream(int argc, char** argv) {
  // --array NAME=SOURCE repeats (one per array), so it is collected before
  // the map-shaped flag parser sees the rest.
  std::vector<std::pair<std::string, std::string>> array_specs;
  std::vector<char*> rest;
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--array") {
      if (i + 1 >= argc) {
        throw std::invalid_argument("--array needs NAME=SOURCE");
      }
      const std::string value = argv[++i];
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::invalid_argument("--array expects NAME=SOURCE, got '" +
                                    value + "'");
      }
      array_specs.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else {
      rest.push_back(argv[i]);
    }
  }
  const FlagMap flags =
      parse_flags(static_cast<int>(rest.size()), rest.data(), 0,
                  {"scheme", "period", "dt", "modules", "threads",
                   "max-groups", "out", "checkpoint", "checkpoint-every",
                   "poll-ms", "stall-timeout-ms", "idle-exit-ms"},
                  {"resume"});

  sim::StreamConfig config;
  config.scheme = sim::parse_stream_scheme(flag_or(flags, "scheme", "dnor"));
  config.control_period_s =
      flag_double(flags, "period", config.control_period_s);
  config.dt_s = flag_double(flags, "dt", 0.0);  // 0 derives from the stream
  config.num_modules = flag_size(flags, "modules", 0);  // 0 likewise
  config.sim.num_threads = flag_size(flags, "threads", config.sim.num_threads);
  config.sim.ehtr_max_groups =
      flag_size(flags, "max-groups", config.sim.ehtr_max_groups);

  const std::string checkpoint_dir = flag_or(flags, "checkpoint", "");
  const bool resume = flags.count("resume") != 0;
  if (resume && checkpoint_dir.empty()) {
    throw std::invalid_argument("--resume needs --checkpoint DIR");
  }
  if (!checkpoint_dir.empty()) {
    std::filesystem::create_directories(checkpoint_dir);
  }

  sim::StreamServerOptions server_options;
  server_options.poll_ms = flag_u64(flags, "poll-ms", server_options.poll_ms);
  server_options.stall_timeout_ms =
      flag_u64(flags, "stall-timeout-ms", server_options.stall_timeout_ms);
  server_options.idle_exit_ms = flag_u64(flags, "idle-exit-ms", 0);

  const auto sink = std::make_shared<StreamSink>(flag_or(flags, "out", ""));
  sim::StreamServer server(
      [sink](const std::string& line) { sink->emit(line); }, server_options);

  if (array_specs.empty()) array_specs.emplace_back("main", "stdin");
  bool stdin_taken = false;
  for (const auto& [name, source] : array_specs) {
    sim::StreamArrayOptions array;
    array.name = name;
    array.config = config;
    array.feed = make_stream_feed(source, stdin_taken);
    if (const auto* tcp =
            dynamic_cast<const sim::TcpLineFeed*>(array.feed.get())) {
      std::fprintf(stderr, "array '%s': listening on 127.0.0.1:%u\n",
                   name.c_str(), static_cast<unsigned>(tcp->port()));
    }
    if (!checkpoint_dir.empty()) {
      array.checkpoint_path =
          (std::filesystem::path(checkpoint_dir) / (name + ".ckpt")).string();
      array.resume = resume;
      array.checkpoint_every_steps = flag_size(flags, "checkpoint-every", 0);
      array.on_resume = [sink](const std::vector<std::string>& lines) {
        sink->restore(lines);
      };
    }
    server.add_array(std::move(array));
  }

  std::signal(SIGTERM, stop_request_handler);
  std::signal(SIGINT, stop_request_handler);
  const std::vector<sim::StreamArrayReport> reports =
      server.run(&g_stop_requested);

  int failures = 0;
  for (const sim::StreamArrayReport& report : reports) {
    if (!report.error.empty()) {
      ++failures;
      std::fprintf(stderr, "array '%s': FAILED: %s\n", report.name.c_str(),
                   report.error.c_str());
      continue;
    }
    std::fprintf(
        stderr,
        "array '%s': %zu step(s), %zu decision(s), %.1f J net, %zu gap(s), "
        "%zu out-of-order, %zu stall(s)%s%s%s\n",
        report.name.c_str(), report.result.steps.size(), report.decisions,
        report.result.energy_output_j, report.gaps, report.out_of_order,
        report.stalls, report.resumed ? ", resumed" : "",
        report.replayed != 0
            ? (", " + std::to_string(report.replayed) + " replayed").c_str()
            : "",
        report.checkpointing_disabled ? ", CHECKPOINTING DISABLED" : "");
    if (report.step_latency_ms.count() > 0) {
      std::fprintf(stderr,
                   "array '%s': step latency mean %.3f ms, max %.3f ms over "
                   "%zu step(s)\n",
                   report.name.c_str(), report.step_latency_ms.mean(),
                   report.step_latency_ms.max(),
                   report.step_latency_ms.count());
    }
  }
  return failures == 0 ? 0 : 1;
}

/// batch --spool: enqueue every spec onto the farm, poll until terminal,
/// and assemble the summary from the shared artifact store.
int cmd_batch_spool(const FlagMap& flags,
                    const std::vector<std::string>& files, bool as_json) {
  sim::SpoolQueue queue = open_spool(flags);
  sim::ArtifactStore store(spool_store_options(flags));
  const std::uint64_t wait_ms = flag_u64(flags, "wait-ms", 0);

  struct SpoolBatchJob {
    std::string file;
    std::string id;
    std::string kind;
    std::string fingerprint_text;
    std::string parse_error;
    sim::SpoolJobState state = sim::SpoolJobState::kUnknown;
    bool reported = false;
  };
  std::vector<SpoolBatchJob> jobs(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    SpoolBatchJob& job = jobs[i];
    job.file = files[i];
    try {
      const sim::ExperimentSpec spec = sim::ExperimentSpec::from_file(files[i]);
      job.kind = kind_name(spec.kind);
      job.fingerprint_text = spec.fingerprint_text();
      job.id = queue.enqueue(spec);
    } catch (const std::exception& e) {
      job.parse_error = e.what();
      std::fprintf(stderr, "[%zu/%zu] %s: invalid spec: %s\n", i + 1,
                   files.size(), files[i].c_str(), e.what());
      job.reported = true;
    }
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(wait_ms);
  std::size_t reported = 0;
  for (const auto& job : jobs) reported += job.reported ? 1 : 0;
  while (reported < jobs.size()) {
    // The producer doubles as a reclaimer so a farm whose only worker died
    // still makes progress once another worker (or this loop's next poller)
    // shows up.
    queue.reclaim_stale();
    bool progressed = false;
    for (SpoolBatchJob& job : jobs) {
      if (job.reported) continue;
      job.state = queue.state(job.id);
      if (job.state != sim::SpoolJobState::kDone &&
          job.state != sim::SpoolJobState::kFailed) {
        continue;
      }
      job.reported = true;
      ++reported;
      progressed = true;
      std::fprintf(stderr, "[%zu/%zu] %s: %s %s\n", reported, jobs.size(),
                   job.file.c_str(), job.kind.c_str(),
                   job.state == sim::SpoolJobState::kDone ? "done" : "FAILED");
    }
    if (reported == jobs.size()) break;
    if (wait_ms > 0 && std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr, "batch: gave up after %llu ms with %zu job(s) "
                           "unfinished\n",
                   static_cast<unsigned long long>(wait_ms),
                   jobs.size() - reported);
      break;
    }
    if (!progressed) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  util::json::Array job_entries;
  int failures = 0;
  for (SpoolBatchJob& job : jobs) {
    util::json::Object entry{{"file", job.file}};
    if (!job.parse_error.empty()) {
      entry.emplace_back("status", "invalid");
      entry.emplace_back("error", job.parse_error);
      ++failures;
    } else {
      entry.emplace_back("kind", job.kind);
      entry.emplace_back("fingerprint", job.id);
      if (job.state == sim::SpoolJobState::kDone) {
        const std::optional<std::string> artifact = store.get(job.id);
        const std::optional<sim::ExperimentResult> result =
            artifact.has_value()
                ? sim::decode_result(*artifact, job.fingerprint_text)
                : std::nullopt;
        if (result.has_value()) {
          entry.emplace_back("status", "done");
          entry.emplace_back("result", result_json(*result));
        } else {
          entry.emplace_back("status", "failed");
          entry.emplace_back("error", "job done but artifact missing/corrupt");
          ++failures;
        }
      } else if (job.state == sim::SpoolJobState::kFailed) {
        entry.emplace_back("status", "failed");
        entry.emplace_back(
            "error",
            queue.failure_reason(job.id).value_or("dead-lettered"));
        ++failures;
      } else {
        entry.emplace_back("status", "pending");
        ++failures;
      }
    }
    job_entries.push_back(std::move(entry));
  }
  const util::json::Value summary =
      util::json::Object{{"schema", 1},
                         {"num_jobs", jobs.size()},
                         {"spool", queue.root()},
                         {"jobs", std::move(job_entries)}};
  const std::string text = util::json::dump(summary, as_json ? 2 : 0);
  util::json::parse(text);  // summary must round-trip
  if (as_json) {
    std::printf("%s\n", text.c_str());
  } else {
    std::printf("%zu job(s) via spool %s: %d failure(s)\n", jobs.size(),
                queue.root().c_str(), failures);
  }
  return failures == 0 ? 0 : 1;
}

int cmd_batch(const FlagMap& flags) {
  const std::string specs = flag_or(flags, "specs", "");
  if (specs.empty()) throw std::invalid_argument("batch needs --specs");
  const bool as_json = flags.count("json") != 0;
  const std::vector<std::string> files = collect_spec_files(specs);

  if (flags.count("spool") != 0) {
    return cmd_batch_spool(flags, files, as_json);
  }

  sim::ExperimentService service(
      service_options(flags, flag_size(flags, "jobs", 0)));

  struct BatchJob {
    std::string file;
    sim::JobHandle handle;          // invalid when the spec failed to parse
    std::string parse_error;
    std::string kind;
    std::chrono::steady_clock::time_point submitted;
    double wall_ms = 0.0;
    bool reported = false;
  };
  std::vector<BatchJob> jobs(files.size());

  for (std::size_t i = 0; i < files.size(); ++i) {
    BatchJob& job = jobs[i];
    job.file = files[i];
    job.submitted = std::chrono::steady_clock::now();
    try {
      const sim::ExperimentSpec spec = sim::ExperimentSpec::from_file(files[i]);
      job.kind = kind_name(spec.kind);
      job.handle = service.submit(spec);
    } catch (const std::exception& e) {
      job.parse_error = e.what();
      std::fprintf(stderr, "[%zu/%zu] %s: invalid spec: %s\n", i + 1,
                   files.size(), files[i].c_str(), e.what());
      job.reported = true;
    }
  }

  // Progress: report each job the moment it turns terminal.
  std::size_t reported = 0;
  for (auto& job : jobs) reported += job.reported ? 1 : 0;
  while (reported < jobs.size()) {
    bool progressed = false;
    for (BatchJob& job : jobs) {
      if (job.reported) continue;
      const sim::JobStatus status = job.handle.status();
      if (status != sim::JobStatus::kDone &&
          status != sim::JobStatus::kFailed &&
          status != sim::JobStatus::kCancelled) {
        continue;
      }
      job.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - job.submitted)
                        .count();
      job.reported = true;
      ++reported;
      progressed = true;
      const char* outcome = status == sim::JobStatus::kDone
                                ? (job.handle.from_cache() ? "cached" : "executed")
                                : (status == sim::JobStatus::kFailed ? "FAILED"
                                                                     : "cancelled");
      std::fprintf(stderr, "[%zu/%zu] %s: %s %s in %.0f ms\n", reported,
                   jobs.size(), job.file.c_str(), job.kind.c_str(), outcome,
                   job.wall_ms);
    }
    if (!progressed) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Machine-readable summary.
  util::json::Array job_entries;
  int failures = 0;
  for (const BatchJob& job : jobs) {
    util::json::Object entry{{"file", job.file}};
    if (!job.handle.valid()) {
      entry.emplace_back("status", "invalid");
      entry.emplace_back("error", job.parse_error);
      ++failures;
    } else {
      entry.emplace_back("kind", job.kind);
      entry.emplace_back("fingerprint", job.handle.fingerprint());
      entry.emplace_back("wall_ms", json_num(job.wall_ms));
      const sim::JobStatus status = job.handle.status();
      if (status == sim::JobStatus::kDone) {
        entry.emplace_back("status", "done");
        entry.emplace_back("from_cache", job.handle.from_cache());
        entry.emplace_back("result", result_json(*job.handle.poll()));
      } else if (status == sim::JobStatus::kFailed) {
        entry.emplace_back("status", "failed");
        try {
          job.handle.wait();
        } catch (const std::exception& e) {
          entry.emplace_back("error", e.what());
        }
        ++failures;
      } else {
        entry.emplace_back("status", "cancelled");
        ++failures;
      }
    }
    job_entries.push_back(std::move(entry));
  }
  const util::json::Value summary = util::json::Object{
      {"schema", 1},
      {"num_jobs", jobs.size()},
      {"executed", service.executions()},
      {"cache_hits", service.cache_hits()},
      {"coalesced", service.coalesced()},
      {"jobs", std::move(job_entries)}};

  // The summary must round-trip: parse it back before anyone else has to.
  const std::string text = util::json::dump(summary, as_json ? 2 : 0);
  util::json::parse(text);

  if (as_json) {
    std::printf("%s\n", text.c_str());
  } else {
    std::printf("%zu job(s): %zu executed, %zu cache hit(s), %zu coalesced, "
                "%d failure(s)\n",
                jobs.size(), service.executions(), service.cache_hits(),
                service.coalesced(), failures);
  }
  return failures == 0 ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  tegrec_cli scenarios\n"
               "  tegrec_cli trace    [--out F] [--scenario NAME] [--seed S] "
               "[--modules N] [--duration T]\n"
               "  tegrec_cli simulate [--trace F | --spec F | --scenario NAME]"
               "\n"
               "                      [--scheme dnor|inor|ehtr|baseline|all]\n"
               "                      [--threads W] [--max-groups G] "
               "[--cache DIR]\n"
               "  tegrec_cli predict  [--trace F] [--method mlr|bpnn|svr|holt] "
               "[--horizon H]\n"
               "  tegrec_cli montecarlo [--scenario NAME] [--seeds K] "
               "[--first-seed S]\n"
               "                      [--modules N] [--duration T] "
               "[--threads W] [--cache DIR]\n"
               "  tegrec_cli batch    --specs DIR-or-FILE [--jobs J] "
               "[--cache DIR] [--json]\n"
               "                      [--spool DIR --cache DIR [--wait-ms T] "
               "[--stale-ms T] [--max-attempts N] [--cache-max-bytes B]]\n"
               "  tegrec_cli worker   --spool DIR --cache DIR [--owner ID] "
               "[--poll-ms T]\n"
               "                      [--heartbeat-ms T] [--stale-ms T] "
               "[--max-attempts N]\n"
               "                      [--max-jobs N] [--idle-exit-ms T] "
               "[--cache-max-bytes B]\n"
               "  tegrec_cli stream   [--array NAME=stdin|tail:PATH|tcp:PORT "
               "...] [--scheme dnor|inor|ehtr|baseline]\n"
               "                      [--dt T] [--modules N] [--period T] "
               "[--threads W] [--max-groups G]\n"
               "                      [--out FILE] [--checkpoint DIR "
               "[--resume] [--checkpoint-every N]]\n"
               "                      [--poll-ms T] [--stall-timeout-ms T] "
               "[--idle-exit-ms T]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string command = argv[1];
  try {
    if (command == "scenarios") {
      return cmd_scenarios(parse_flags(argc, argv, 2, {}));
    }
    if (command == "trace") {
      return cmd_trace(parse_flags(
          argc, argv, 2, {"out", "scenario", "seed", "modules", "duration"}));
    }
    if (command == "simulate") {
      return cmd_simulate(parse_flags(argc, argv, 2,
                                      {"trace", "spec", "scenario", "scheme",
                                       "threads", "max-groups", "cache"}));
    }
    if (command == "predict") {
      return cmd_predict(parse_flags(argc, argv, 2,
                                     {"trace", "method", "horizon"}));
    }
    if (command == "montecarlo") {
      return cmd_montecarlo(parse_flags(argc, argv, 2,
                                        {"scenario", "seeds", "first-seed",
                                         "modules", "duration", "threads",
                                         "cache"}));
    }
    if (command == "batch") {
      return cmd_batch(parse_flags(argc, argv, 2,
                                   {"specs", "jobs", "cache", "spool",
                                    "wait-ms", "stale-ms", "max-attempts",
                                    "cache-max-bytes"},
                                   {"json"}));
    }
    if (command == "worker") {
      return cmd_worker(parse_flags(argc, argv, 2,
                                    {"spool", "cache", "owner", "poll-ms",
                                     "heartbeat-ms", "stale-ms",
                                     "max-attempts", "max-jobs",
                                     "idle-exit-ms", "cache-max-bytes"}));
    }
    if (command == "stream") {
      return cmd_stream(argc, argv);
    }
    usage();
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
