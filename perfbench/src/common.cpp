#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <utility>

#include "bench.hpp"
#include "core/dnor.hpp"
#include "core/ehtr.hpp"
#include "core/inor.hpp"
#include "core/objective.hpp"
#include "predict/mlr.hpp"
#include "switchfab/switch_network.hpp"
#include "teg/array.hpp"
#include "teg/array_evaluator.hpp"

// ----------------------------------------------------------------------
// Global allocation counter (process.allocs_per_step).  Counts calls, not
// bytes; new[] and the sized/aligned-less forms forward here.  GCC flags
// new-from-malloc / delete-into-free pairs as mismatched even though a
// malloc-backed replacement is the conforming way to replace them.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tegbench {

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ----------------------------------------------------------------- stats

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

/// Percentile q of each window of `size` consecutive values; the last
/// window absorbs a short tail.
void window_percentiles(const std::vector<double>& values, std::size_t size,
                        double q, std::vector<double>& out) {
  const std::size_t windows = std::max<std::size_t>(1, values.size() / size);
  for (std::size_t w = 0; w < windows && !values.empty(); ++w) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(w * size);
    const auto last = w + 1 == windows
                          ? values.end()
                          : first + static_cast<std::ptrdiff_t>(size);
    out.push_back(percentile({first, last}, q));
  }
}

}  // namespace

void Episodes::add(const std::vector<double>& iteration_us, double wall) {
  window_percentiles(iteration_us, kP50Window, 0.5, window_p50_us);
  window_percentiles(iteration_us, p99_window, 0.99, window_p99_us);
  if (!iteration_us.empty()) {
    episode_p99_us.push_back(percentile(iteration_us, 0.99));
  }
  wall_s.push_back(wall);
}

double Episodes::best_p50() const { return percentile(window_p50_us, 0.0); }
double Episodes::best_p99() const { return percentile(window_p99_us, 0.0); }
double Episodes::best_wall() const { return percentile(wall_s, 0.0); }

std::string Episodes::summary(const std::string& label) const {
  std::ostringstream os;
  os.precision(4);
  os << label << ": " << wall_s.size() << " episodes, median wall "
     << median(wall_s) << " s";
  if (!episode_p99_us.empty()) {
    os << ", median window p50 " << median(window_p50_us)
       << " us, median episode p99 " << median(episode_p99_us) << " us";
  }
  return os.str();
}

// ------------------------------------------------------------------ feed

ScriptedFeed::ScriptedFeed(std::shared_ptr<const std::vector<std::string>> lines,
                           std::size_t count,
                           std::vector<Clock::time_point>* stamps)
    : lines_(std::move(lines)), count_(count), stamps_(stamps) {}

sim::ByteFeed::Status ScriptedFeed::poll(std::string& chunk) {
  stamps_->push_back(Clock::now());
  if (next_ >= count_) return Status::kEnd;
  chunk += (*lines_)[next_++];
  return Status::kData;
}

// ------------------------------------------------------------ decorators

TimingPredictor::TimingPredictor(std::unique_ptr<predict::Predictor> inner,
                                 PredictorProbe& probe)
    : inner_(std::move(inner)), probe_(&probe) {}

void TimingPredictor::fit(const predict::TemperatureHistory& history) {
  const Clock::time_point t0 = Clock::now();
  inner_->fit(history);
  probe_->fit_s += seconds_since(t0);
  ++probe_->fits;
  // Pooled autoregressive rows: every module at every time with a full
  // lag window behind it and a target after it.
  const std::size_t lags = inner_->num_lags();
  if (history.size() > lags) {
    probe_->fit_rows += history.num_modules() * (history.size() - lags);
  }
}

std::vector<double> TimingPredictor::predict_next(
    const predict::TemperatureHistory& history) const {
  const Clock::time_point t0 = Clock::now();
  std::vector<double> next = inner_->predict_next(history);
  probe_->predict_s += seconds_since(t0);
  ++probe_->predicts;
  return next;
}

TimingReconfigurer::TimingReconfigurer(std::unique_ptr<core::Reconfigurer> inner,
                                       ControllerProbe& probe)
    : inner_(std::move(inner)), probe_(&probe) {}

core::UpdateResult TimingReconfigurer::update(
    double time_s, const std::vector<double>& delta_t_k, double ambient_c) {
  const Clock::time_point t0 = Clock::now();
  core::UpdateResult result = inner_->update(time_s, delta_t_k, ambient_c);
  const double elapsed = seconds_since(t0);
  probe_->update_s += elapsed;
  probe_->update_us.push_back(elapsed * 1e6);
  if (result.invoked) ++probe_->invocations;
  if (probe_->records != nullptr) {
    probe_->records->push_back(UpdateRecord{time_s, delta_t_k, ambient_c,
                                            result.config.group_starts(),
                                            result.invoked, result.actuate});
  }
  return result;
}

std::unique_ptr<core::Reconfigurer> make_traced_controller(
    const sim::StreamConfig& config, ControllerProbe& controller_probe,
    PredictorProbe& predictor_probe) {
  std::unique_ptr<core::Reconfigurer> inner;
  if (config.scheme == sim::StreamScheme::kDnor) {
    core::DnorParams params;
    params.control_period_s = config.control_period_s;
    inner = std::make_unique<core::DnorReconfigurer>(
        config.sim.device, config.sim.converter, params,
        std::make_unique<TimingPredictor>(
            std::make_unique<predict::MlrPredictor>(), predictor_probe));
  } else {
    inner = sim::make_stream_controller(config);
  }
  return std::make_unique<TimingReconfigurer>(std::move(inner),
                                              controller_probe);
}

// ---------------------------------------------------------------- checks

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

std::string diff_results(const sim::SimulationResult& a,
                         const sim::SimulationResult& b) {
  std::ostringstream os;
  os.precision(17);
  const auto field = [&](const char* name, double x, double y) {
    if (!same_bits(x, y) && os.tellp() == 0) {
      os << name << ": " << x << " vs " << y;
    }
  };
  const auto count = [&](const char* name, std::size_t x, std::size_t y) {
    if (x != y && os.tellp() == 0) os << name << ": " << x << " vs " << y;
  };
  if (a.algorithm != b.algorithm) return "algorithm " + a.algorithm + " vs " + b.algorithm;
  count("steps", a.steps.size(), b.steps.size());
  field("energy_output_j", a.energy_output_j, b.energy_output_j);
  field("switch_overhead_j", a.switch_overhead_j, b.switch_overhead_j);
  field("ideal_energy_j", a.ideal_energy_j, b.ideal_energy_j);
  field("battery_energy_j", a.battery_energy_j, b.battery_energy_j);
  field("final_soc", a.final_soc, b.final_soc);
  count("num_invocations", a.num_invocations, b.num_invocations);
  count("num_switch_events", a.num_switch_events, b.num_switch_events);
  count("total_switch_actuations", a.total_switch_actuations,
        b.total_switch_actuations);
  for (std::size_t i = 0; i < a.steps.size() && i < b.steps.size(); ++i) {
    const sim::StepRecord& x = a.steps[i];
    const sim::StepRecord& y = b.steps[i];
    if (!same_bits(x.time_s, y.time_s) ||
        !same_bits(x.gross_power_w, y.gross_power_w) ||
        !same_bits(x.net_power_w, y.net_power_w) ||
        !same_bits(x.ideal_power_w, y.ideal_power_w) ||
        !same_bits(x.overhead_energy_j, y.overhead_energy_j) ||
        x.invoked != y.invoked || x.switched != y.switched ||
        x.switch_actuations != y.switch_actuations) {
      if (os.tellp() == 0) os << "step " << i << " differs";
      break;
    }
  }
  return os.str();
}

// ---------------------------------------------------------- layer replay

void replay_layers(const sim::StreamConfig& config,
                   const std::vector<UpdateRecord>& records,
                   const std::vector<sim::StepRecord>& steps,
                   std::size_t ehtr_stride, LayerTotals& totals, Outcome& out) {
  out.expect(records.size() == steps.size(),
             "layer replay: " + std::to_string(records.size()) +
                 " controller updates for " + std::to_string(steps.size()) +
                 " steps");
  const power::Converter converter(config.sim.converter);
  std::unique_ptr<switchfab::SwitchNetwork> fabric;
  std::size_t ehtr_invocations = 0;
  const std::vector<std::size_t>* held = nullptr;  // config before this update
  bool replay_ok = true;

  for (std::size_t i = 0; i < records.size() && i < steps.size(); ++i) {
    const UpdateRecord& r = records[i];
    const teg::ArrayConfig chosen(r.group_starts, config.num_modules);

    // teg: the stepper's per-step electrical evaluation.
    Clock::time_point t0 = Clock::now();
    const teg::TegArray array(config.sim.device, r.delta_t, r.ambient_c);
    Clock::time_point t1 = Clock::now();
    const teg::ArrayEvaluator evaluator(array);
    Clock::time_point t2 = Clock::now();
    const double gross = core::config_power_w(evaluator, converter, chosen);
    Clock::time_point t3 = Clock::now();
    totals.array_build_s += seconds_between(t0, t1);
    totals.evaluator_build_s += seconds_between(t1, t2);
    totals.score_s += seconds_between(t2, t3);
    ++totals.score_calls;
    ++totals.steps;
    if (!same_bits(gross, steps[i].gross_power_w)) replay_ok = false;

    // switchfab: the stepper wires the first config for free and applies
    // every later actuation.
    if (!fabric) {
      fabric = std::make_unique<switchfab::SwitchNetwork>(config.num_modules,
                                                          chosen);
    } else if (r.actuate) {
      t0 = Clock::now();
      const std::size_t flipped = fabric->apply(chosen);
      totals.apply_s += seconds_since(t0);
      ++totals.actuations;
      totals.switch_actuations += flipped;
      if (flipped != steps[i].switch_actuations) replay_ok = false;
    }

    // core: the scheme's search on the same inputs.
    if (r.invoked && config.scheme == sim::StreamScheme::kInor) {
      t0 = Clock::now();
      const teg::ArrayConfig found = core::inor_search(array, converter);
      totals.inor_search_s += seconds_since(t0);
      ++totals.inor_searches;
      if (found != chosen) replay_ok = false;
    } else if (r.invoked && config.scheme == sim::StreamScheme::kDnor) {
      t0 = Clock::now();
      const teg::ArrayConfig found = core::inor_search(array, converter);
      totals.inor_search_s += seconds_since(t0);
      ++totals.inor_searches;
    } else if (r.invoked && config.scheme == sim::StreamScheme::kEhtr) {
      if (ehtr_invocations++ % ehtr_stride == 0) {
        core::EhtrWarmStart warm;
        warm.enabled = config.sim.ehtr_warm_start;
        warm.incumbent_groups = held != nullptr ? held->size() : 0;
        warm.width = config.sim.ehtr_warm_width;
        core::EhtrSearchStats stats;
        t0 = Clock::now();
        const teg::ArrayConfig found = core::ehtr_search(
            array, converter, 1, core::PartitionDp::kDivideAndConquer,
            config.sim.ehtr_max_groups, warm, &stats);
        totals.ehtr_search_s += seconds_since(t0);
        ++totals.ehtr_searches;
        totals.ehtr_groups_certified += stats.groups_certified;
        totals.ehtr_max_groups += stats.max_groups;
        if (found != chosen) replay_ok = false;

        std::vector<double> impp = array.module_mpp_currents();
        for (double& x : impp) {
          if (!std::isfinite(x)) x = 0.0;
        }
        t0 = Clock::now();
        const core::PartitionTable table(impp, stats.max_groups);
        totals.ehtr_dp_s += seconds_since(t0);
        if (table.solved_groups() != stats.max_groups) replay_ok = false;
      }
    }
    held = &r.group_starts;
  }
  out.expect(replay_ok,
             "layer replay of " + sim::stream_scheme_name(config.scheme) +
                 " did not reproduce the stepper's records");
}

void publish_core(const std::map<sim::StreamScheme, ControllerProbe>& probes,
                  Outcome& out) {
  for (sim::StreamScheme scheme : {sim::StreamScheme::kDnor,
                                   sim::StreamScheme::kInor,
                                   sim::StreamScheme::kEhtr}) {
    const auto it = probes.find(scheme);
    if (it == probes.end()) continue;
    const std::string name = sim::stream_scheme_name(scheme);
    out.set("core.update_us_p50." + name, percentile(it->second.update_us, 0.5),
            "us");
    out.set("core.update_us_p99." + name, percentile(it->second.update_us, 0.99),
            "us");
    out.set("core.invocations." + name,
            static_cast<double>(it->second.invocations), "count");
  }
}

void publish_predictor(const PredictorProbe& pp, Outcome& out) {
  const auto per = [](double total, std::size_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  out.set("predict.fit_ms_per_call", per(pp.fit_s, pp.fits) * 1e3, "ms");
  out.set("predict.predict_ms_per_call", per(pp.predict_s, pp.predicts) * 1e3,
          "ms");
  out.set("predict.fits", static_cast<double>(pp.fits), "count");
  out.set("predict.rows_per_fit",
          pp.fits == 0 ? 0.0
                       : static_cast<double>(pp.fit_rows) /
                             static_cast<double>(pp.fits),
          "count");
}

void publish_layers(const LayerTotals& t, Outcome& out) {
  const auto per = [](double total, std::size_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  out.set("teg.array_build_us_per_step", per(t.array_build_s, t.steps) * 1e6, "us");
  out.set("teg.evaluator_build_us_per_step",
          per(t.evaluator_build_s, t.steps) * 1e6, "us");
  out.set("teg.score_us_per_call", per(t.score_s, t.score_calls) * 1e6, "us");
  out.set("teg.score_calls", static_cast<double>(t.score_calls), "count");
  out.set("switchfab.apply_us_per_actuation", per(t.apply_s, t.actuations) * 1e6,
          "us");
  out.set("switchfab.switch_actuations", static_cast<double>(t.switch_actuations),
          "count");
  out.set("core.inor.search_us_per_invocation",
          per(t.inor_search_s, t.inor_searches) * 1e6, "us");
  out.set("core.ehtr.search_ms_per_invocation",
          per(t.ehtr_search_s, t.ehtr_searches) * 1e3, "ms");
  out.set("core.ehtr.dp_ms_per_invocation", per(t.ehtr_dp_s, t.ehtr_searches) * 1e3,
          "ms");
  out.set("core.ehtr.groups_solved_frac",
          t.ehtr_max_groups == 0
              ? 0.0
              : static_cast<double>(t.ehtr_groups_certified) /
                    static_cast<double>(t.ehtr_max_groups),
          "ratio");
}

}  // namespace tegbench
