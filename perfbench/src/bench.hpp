// Shared pieces of tegbench: clocks and sample statistics, the
// metric table, the closed-loop telemetry feed, and the timing decorators
// that the traced runs wrap around the library's public interfaces.
//
// Everything here sits outside the library: spans are taken around public
// calls (ByteFeed::poll, Reconfigurer::update, Predictor::fit, ...), never
// inside them.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/reconfigurer.hpp"
#include "predict/predictor.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"
#include "sim/telemetry.hpp"

namespace tegbench {

using namespace tegrec;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

/// Heap allocations (global operator new calls) since process start.
std::uint64_t allocation_count();
/// Peak resident set size of this process so far [MB].  Workloads read it
/// once every part has run one episode, so it does not grow with the
/// number of episodes that fit in --seconds.
double peak_rss_mb();

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty set.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);
/// Geometric mean of strictly positive values.
double geomean(const std::vector<double>& values);

/// Iterations per window for the p50 statistic.
constexpr std::size_t kP50Window = 500;
/// Default iterations per window for p99: ten samples lie beyond it.
constexpr std::size_t kP99Window = 1000;

/// Repeated episodes of one part of a workload (an hour of stream, one
/// scheme's stream, one study).  Co-tenants on a shared host slow a process
/// for seconds at a time and never speed it up, so a run reports the least
/// disturbed figure: each percentile is the lowest over windows of
/// consecutive iterations, and wall time is the fastest episode's.
/// Medians over episodes go to the notes.
struct Episodes {
  /// Windows for p99 must be alike: where cost drifts within an episode
  /// (checkpoints grow through an hour), pass the episode length.
  explicit Episodes(std::size_t p99_window = kP99Window)
      : p99_window(p99_window) {}

  std::size_t p99_window;
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  std::vector<double> episode_p99_us;  ///< for the notes
  std::vector<double> wall_s;          ///< per episode

  /// Records one episode: its per-iteration latencies (may be empty when
  /// only the wall time is of interest) and its wall time.
  void add(const std::vector<double>& iteration_us, double wall);
  double best_p50() const;
  double best_p99() const;
  double best_wall() const;
  /// "<label>: N episodes, median wall .., p50 .., p99 .." for the notes.
  std::string summary(const std::string& label) const;
};

// ------------------------------------------------------------------ output

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one invocation measured and whether its outputs were right.
struct Outcome {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> mismatches;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Extra facts printed before the metrics (host, sizes).
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a correctness failure when `ok` is false.
  void expect(bool ok, const std::string& what) {
    if (!ok) mismatches.push_back(what);
  }
};

/// Times each workload set-up is repeated; setup_s is their median.
constexpr int kSetupRepeats = 5;

/// Runs `make` once to warm up, then kSetupRepeats times timed, and keeps
/// the last result; the median timed duration is the workload's setup_s.
/// Each result is dropped before the next is made, so peak RSS holds one
/// copy of the inputs.
template <typename Make>
auto timed_setup(Outcome& out, Make make) {
  std::vector<double> durations;
  auto result = make();
  for (int i = 1; i <= kSetupRepeats; ++i) {
    result = {};
    const Clock::time_point t0 = Clock::now();
    result = make();
    durations.push_back(seconds_since(t0));
  }
  out.set("setup_s", median(durations), "s");
  return result;
}

struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for checkpoint files; created and
  /// removed by the workloads.
  std::string scratch_dir;
};

void run_stream_ckpt_hour(const RunContext& ctx, Outcome& out);
void run_stream_kilo(const RunContext& ctx, Outcome& out);
void run_batch_montecarlo(const RunContext& ctx, Outcome& out);

// ------------------------------------------------------- closed-loop feed

/// Hands the server exactly one line per poll() and never reports idle, so
/// the server loop never sleeps; after the last line it reports kEnd.  Each
/// poll is stamped, so consecutive stamps bracket one server iteration
/// (poll -> parse -> step -> emit -> maybe checkpoint).
class ScriptedFeed final : public sim::ByteFeed {
 public:
  /// Delivers lines[0, count); `stamps` (owned by the caller, outliving the
  /// feed) receives one time point per poll, the final kEnd poll included.
  ScriptedFeed(std::shared_ptr<const std::vector<std::string>> lines,
               std::size_t count, std::vector<Clock::time_point>* stamps);

  Status poll(std::string& chunk) override;
  std::string describe() const override { return "tegbench"; }

 private:
  std::shared_ptr<const std::vector<std::string>> lines_;
  std::size_t count_;
  std::size_t next_ = 0;
  std::vector<Clock::time_point>* stamps_;
};

// --------------------------------------------------------------- decorators

/// Counts and times the calls a TimingPredictor forwards.
struct PredictorProbe {
  std::size_t fits = 0;
  std::size_t fit_rows = 0;  ///< (module, time) training rows over all fits
  double fit_s = 0.0;
  std::size_t predicts = 0;  ///< predict_next calls (one per horizon step)
  double predict_s = 0.0;
};

/// Wraps a predictor and times fit() / predict_next(); results unchanged.
class TimingPredictor final : public predict::Predictor {
 public:
  TimingPredictor(std::unique_ptr<predict::Predictor> inner,
                  PredictorProbe& probe);

  std::string name() const override { return inner_->name(); }
  std::size_t num_lags() const override { return inner_->num_lags(); }
  void fit(const predict::TemperatureHistory& history) override;
  bool refit_is_pure() const override { return inner_->refit_is_pure(); }
  bool is_fitted() const override { return inner_->is_fitted(); }
  std::vector<double> predict_next(
      const predict::TemperatureHistory& history) const override;

 private:
  std::unique_ptr<predict::Predictor> inner_;
  PredictorProbe* probe_;
};

/// One update() call as the controller saw it, kept for the layer replay.
struct UpdateRecord {
  double time_s = 0.0;
  std::vector<double> delta_t;
  double ambient_c = 0.0;
  std::vector<std::size_t> group_starts;  ///< configuration returned
  bool invoked = false;
  bool actuate = false;
};

struct ControllerProbe {
  std::vector<double> update_us;  ///< one entry per update() call
  double update_s = 0.0;
  std::size_t invocations = 0;
  /// When set, every update() is appended here (layer replay input).
  std::vector<UpdateRecord>* records = nullptr;
};

/// Wraps a controller and times update(); every other call forwards.
class TimingReconfigurer final : public core::Reconfigurer {
 public:
  TimingReconfigurer(std::unique_ptr<core::Reconfigurer> inner,
                     ControllerProbe& probe);

  std::string name() const override { return inner_->name(); }
  core::UpdateResult update(double time_s, const std::vector<double>& delta_t_k,
                            double ambient_c) override;
  void reset() override { inner_->reset(); }
  core::AlgorithmCost algorithm_cost() const override {
    return inner_->algorithm_cost();
  }
  bool supports_checkpoint() const override {
    return inner_->supports_checkpoint();
  }
  std::string checkpoint_state() const override {
    return inner_->checkpoint_state();
  }
  void restore_checkpoint_state(const std::string& state) override {
    inner_->restore_checkpoint_state(state);
  }

 private:
  std::unique_ptr<core::Reconfigurer> inner_;
  ControllerProbe* probe_;
};

/// The controller sim::make_stream_controller builds for `config`, wrapped
/// in a TimingReconfigurer; DNOR additionally gets its MLR predictor
/// wrapped in a TimingPredictor (injected through DnorReconfigurer's
/// constructor, with the parameters make_stream_controller uses).
std::unique_ptr<core::Reconfigurer> make_traced_controller(
    const sim::StreamConfig& config, ControllerProbe& controller_probe,
    PredictorProbe& predictor_probe);

// ----------------------------------------------------------- shared checks

/// Compares every deterministic field of two results (totals, counters and
/// each step record; measured compute times excluded).  Returns "" when
/// equal, otherwise a description of the first difference.
std::string diff_results(const sim::SimulationResult& a,
                         const sim::SimulationResult& b);

// ------------------------------------------------------------ layer replay

/// Per-layer totals gathered by replaying recorded controller inputs
/// through the library's layer calls (teg, switchfab, core search).
struct LayerTotals {
  std::size_t steps = 0;
  double array_build_s = 0.0;
  double evaluator_build_s = 0.0;
  std::size_t score_calls = 0;
  double score_s = 0.0;
  std::size_t actuations = 0;  ///< SwitchNetwork::apply calls
  double apply_s = 0.0;
  std::size_t switch_actuations = 0;  ///< switches flipped over all applies
  std::size_t inor_searches = 0;
  double inor_search_s = 0.0;
  std::size_t ehtr_searches = 0;
  double ehtr_search_s = 0.0;
  double ehtr_dp_s = 0.0;
  std::size_t ehtr_groups_certified = 0;
  std::size_t ehtr_max_groups = 0;
};

/// Replays `records` (one per stepper step, in order) through
/// teg::TegArray / teg::ArrayEvaluator / core::config_power_w and a shadow
/// switchfab::SwitchNetwork, checking each against the stepper's own
/// record; INOR / EHTR invocations are also replayed through inor_search /
/// ehtr_search + PartitionTable (EHTR every `ehtr_stride`-th invocation).
void replay_layers(const sim::StreamConfig& config,
                   const std::vector<UpdateRecord>& records,
                   const std::vector<sim::StepRecord>& steps,
                   std::size_t ehtr_stride, LayerTotals& totals, Outcome& out);

/// Publishes the teg / switchfab / core-search per-layer metrics.
void publish_layers(const LayerTotals& totals, Outcome& out);

/// Publishes core.update_us_* and core.invocations.* for the DNOR, INOR and
/// EHTR probes present.
void publish_core(const std::map<sim::StreamScheme, ControllerProbe>& probes,
                  Outcome& out);

/// Publishes the predict.* metrics.
void publish_predictor(const PredictorProbe& probe, Outcome& out);

}  // namespace tegbench
