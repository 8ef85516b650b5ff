// The batch_montecarlo workload: the paper's DNOR-vs-baseline Monte-Carlo
// study submitted to a fresh sim::ExperimentService (caches off), checked
// against a serial SimStepper reference that also gives the per-step cost.
#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "sim/experiment.hpp"
#include "sim/service.hpp"
#include "sim/spec.hpp"
#include "sim/stepper.hpp"
#include "thermal/scenario.hpp"

namespace tegbench {
namespace {

constexpr std::size_t kSeeds = 32;
/// Seeds whose steps a latency pass times, after each study.
constexpr std::size_t kLatencySeeds = 2;

struct SerialPass {
  std::vector<sim::MonteCarloSample> samples;
  std::vector<double> dnor_step_us;
  std::vector<double> baseline_step_us;
  double dnor_s = 0.0;
  double baseline_s = 0.0;
  double step_s = 0.0;
  double wall_s = 0.0;
  std::size_t steps = 0;
};

sim::StreamConfig scheme_config(sim::StreamScheme scheme,
                                const thermal::TemperatureTrace& trace,
                                const sim::ExperimentSpec& spec) {
  sim::StreamConfig config;
  config.scheme = scheme;
  config.control_period_s = spec.comparison.control_period_s;
  config.dt_s = trace.dt_s();
  config.num_modules = trace.num_modules();
  config.sim = spec.comparison.sim;
  return config;
}

/// run_simulation's loop, with each SimStepper::step timed.
sim::SimulationResult stepped_run(core::Reconfigurer& controller,
                                  const thermal::TemperatureTrace& trace,
                                  const sim::SimulationOptions& options,
                                  std::vector<double>* step_us,
                                  double& step_s) {
  sim::SimStepper stepper(controller, trace.dt_s(), trace.num_modules(), options);
  sim::TraceSample sample;
  for (std::size_t t = 0; t < trace.num_steps(); ++t) {
    sample.time_s = static_cast<double>(t) * trace.dt_s();
    sample.module_temps_c = trace.step_temperatures(t);
    sample.ambient_c = trace.ambient_c(t);
    const Clock::time_point t0 = Clock::now();
    stepper.step(sample);
    const double elapsed = seconds_since(t0);
    step_s += elapsed;
    if (step_us != nullptr) step_us->push_back(elapsed * 1e6);
  }
  return stepper.result();
}

/// The study's samples for traces[0, count) recomputed seed by seed on
/// this thread.  With `probes` set, the controllers are the timing
/// decorators (traced pass).
SerialPass serial_pass(const std::vector<thermal::TemperatureTrace>& traces,
                       std::size_t count, const sim::ExperimentSpec& spec,
                       std::map<sim::StreamScheme, ControllerProbe>* probes,
                       PredictorProbe* pp) {
  SerialPass pass;
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0; k < count; ++k) {
    const thermal::TemperatureTrace& trace = traces[k];
    sim::ComparisonResult res;
    for (sim::StreamScheme scheme :
         {sim::StreamScheme::kDnor, sim::StreamScheme::kBaseline}) {
      const sim::StreamConfig config = scheme_config(scheme, trace, spec);
      const bool dnor = scheme == sim::StreamScheme::kDnor;
      const std::unique_ptr<core::Reconfigurer> controller =
          probes != nullptr
              ? make_traced_controller(config, (*probes)[scheme], *pp)
              : sim::make_stream_controller(config);
      const Clock::time_point t0 = Clock::now();
      res.runs.push_back(stepped_run(
          *controller, trace, config.sim,
          dnor ? &pass.dnor_step_us : &pass.baseline_step_us, pass.step_s));
      (dnor ? pass.dnor_s : pass.baseline_s) += seconds_since(t0);
      pass.steps += trace.num_steps();
      if (probes != nullptr) (*probes)[scheme].records = nullptr;
    }
    sim::MonteCarloSample sample;
    sample.seed = spec.mc_first_seed + k;
    sample.dnor_energy_j = res.by_name("DNOR").energy_output_j;
    sample.baseline_energy_j = res.by_name("Baseline").energy_output_j;
    sample.gain = res.dnor_gain_over_baseline();
    sample.dnor_overhead_j = res.by_name("DNOR").switch_overhead_j;
    sample.dnor_switches =
        static_cast<double>(res.by_name("DNOR").num_switch_events);
    pass.samples.push_back(sample);
  }
  pass.wall_s = seconds_since(start);
  return pass;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_samples(const std::vector<sim::MonteCarloSample>& a,
                  const std::vector<sim::MonteCarloSample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].seed != b[i].seed ||
        !same_bits(a[i].dnor_energy_j, b[i].dnor_energy_j) ||
        !same_bits(a[i].baseline_energy_j, b[i].baseline_energy_j) ||
        !same_bits(a[i].gain, b[i].gain) ||
        !same_bits(a[i].dnor_overhead_j, b[i].dnor_overhead_j) ||
        !same_bits(a[i].dnor_switches, b[i].dnor_switches)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void run_batch_montecarlo(const RunContext& ctx, Outcome& out) {
  const std::size_t workers = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  sim::ExperimentSpec spec;
  spec.kind = sim::ExperimentKind::kMonteCarlo;
  spec.trace = sim::scenario_source("porter_800s");
  spec.comparison.include_inor = false;
  spec.comparison.include_ehtr = false;
  spec.mc_num_seeds = kSeeds;
  spec.mc_first_seed = 1 + ctx.seed * kSeeds;
  spec.mc_num_threads = workers;

  sim::ServiceOptions service_options;
  service_options.num_workers = workers;
  service_options.memory_cache_entries = 0;
  service_options.cache_dir.clear();

  // Setup: the per-seed traces the serial passes replay (the service
  // generates its own inside the timed region).
  struct Inputs {
    std::vector<thermal::TemperatureTrace> traces;
    double generate_s = 0.0;
  };
  const Inputs in = timed_setup(out, [&] {
    Inputs made;
    for (std::size_t k = 0; k < kSeeds; ++k) {
      thermal::TraceGeneratorConfig gen = spec.trace.generator;
      gen.seed = spec.mc_first_seed + k;
      const Clock::time_point t0 = Clock::now();
      made.traces.push_back(thermal::generate_trace(gen));
      made.generate_s += seconds_since(t0);
    }
    for (sim::StreamScheme scheme :
         {sim::StreamScheme::kDnor, sim::StreamScheme::kBaseline}) {
      (void)sim::make_stream_controller(scheme_config(scheme, made.traces[0], spec));
    }
    return made;
  });
  const std::vector<thermal::TemperatureTrace>& traces = in.traces;
  const std::size_t steps_per_seed = traces[0].num_steps();
  out.notes.push_back("study: " + std::to_string(kSeeds) + " seeds of porter_800s, " +
                      std::to_string(traces[0].num_modules()) + " modules x " +
                      std::to_string(steps_per_seed) + " steps, " +
                      std::to_string(workers) + " workers");

  // Timed region: rounds of one whole study through a fresh service, then
  // a serial pass over the first kLatencySeeds seeds that times each
  // SimStepper::step (the service's own steps are out of reach).
  Episodes studies;
  Episodes dnor_steps;
  Episodes baseline_steps;
  std::vector<std::vector<sim::MonteCarloSample>> samples;
  std::size_t executions = 0;
  std::size_t cache_hits = 0;
  std::uint64_t first_study_allocs = 0;
  const Clock::time_point timed_start = Clock::now();
  while (studies.wall_s.empty() || seconds_since(timed_start) < ctx.seconds) {
    const std::uint64_t allocs0 = allocation_count();
    const Clock::time_point t0 = Clock::now();
    ++out.attempted;
    try {
      sim::ExperimentService service(service_options);
      const sim::JobHandle job = service.submit(spec);
      const std::shared_ptr<const sim::ExperimentResult> result = job.wait();
      samples.push_back(result->monte_carlo.samples);
      executions += service.executions();
      cache_hits += service.cache_hits();
    } catch (const std::exception& e) {
      ++out.failed;
      out.mismatches.push_back(std::string("study failed: ") + e.what());
      return;
    }
    studies.add({}, seconds_since(t0));
    const bool first = studies.wall_s.size() == 1;
    if (first) first_study_allocs = allocation_count() - allocs0;
    const SerialPass pass = serial_pass(traces, kLatencySeeds, spec, nullptr, nullptr);
    dnor_steps.add(pass.dnor_step_us, pass.dnor_s);
    baseline_steps.add(pass.baseline_step_us, pass.baseline_s);
    if (first) out.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
  const double best_study_s = studies.best_wall();
  out.set("steps_per_s",
          static_cast<double>(kSeeds * steps_per_seed * 2) / best_study_s, "1/s");
  out.set("seeds_per_s", static_cast<double>(kSeeds) / best_study_s, "1/s");
  out.set("step_p50_us.dnor", dnor_steps.best_p50(), "us");
  out.set("step_p99_us.dnor", dnor_steps.best_p99(), "us");
  out.set("step_p50_us", geomean({dnor_steps.best_p50(), baseline_steps.best_p50()}),
          "us");
  out.set("step_p99_us", geomean({dnor_steps.best_p99(), baseline_steps.best_p99()}),
          "us");
  out.notes.push_back(studies.summary("studies"));
  out.notes.push_back(dnor_steps.summary("dnor latency passes"));
  out.notes.push_back(baseline_steps.summary("baseline latency passes"));

  // Correctness: every study equals the serial reference.
  const SerialPass reference = serial_pass(traces, kSeeds, spec, nullptr, nullptr);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out.expect(same_samples(samples[i], reference.samples),
               "study " + std::to_string(i) +
                   ": Monte-Carlo samples differ from the serial reference");
  }
  out.expect(cache_hits == 0, "the service answered from a cache");
  out.expect(executions == samples.size(),
             "the service did not execute every study");

  if (!ctx.trace) return;

  out.set("service.run_ms_per_seed.dnor", reference.dnor_s / kSeeds * 1e3, "ms");
  out.set("service.run_ms_per_seed.baseline", reference.baseline_s / kSeeds * 1e3,
          "ms");
  out.set("service.executions",
          static_cast<double>(executions) / static_cast<double>(samples.size()),
          "count");
  out.set("service.cache_hits", static_cast<double>(cache_hits), "count");
  out.set("montecarlo.fanout_efficiency",
          (in.generate_s + reference.dnor_s + reference.baseline_s) /
              (median(studies.wall_s) * static_cast<double>(workers)),
          "ratio");
  out.set("thermal.generate_ms_per_seed", in.generate_s / kSeeds * 1e3, "ms");

  // Traced pass: decorated controllers over every seed; the first seed's
  // DNOR inputs are kept for the layer replay.
  std::map<sim::StreamScheme, ControllerProbe> probes;
  std::vector<UpdateRecord> records;
  probes[sim::StreamScheme::kDnor].records = &records;
  PredictorProbe pp;
  const SerialPass traced = serial_pass(traces, kSeeds, spec, &probes, &pp);
  out.expect(same_samples(traced.samples, reference.samples),
             "traced pass: samples differ from the untraced reference");

  {
    const sim::StreamConfig config =
        scheme_config(sim::StreamScheme::kDnor, traces[0], spec);
    const std::unique_ptr<core::Reconfigurer> dnor =
        sim::make_stream_controller(config);
    double ignored = 0.0;
    const sim::SimulationResult seed0 =
        stepped_run(*dnor, traces[0], config.sim, nullptr, ignored);
    LayerTotals layers;
    replay_layers(config, records, seed0.steps, 1, layers, out);
    publish_layers(layers, out);
  }

  publish_core(probes, out);
  publish_predictor(pp, out);
  double update_s = 0.0;
  for (const auto& [scheme, probe] : probes) update_s += probe.update_s;
  out.set("stepper.self_us_per_step",
          (traced.step_s - update_s) / static_cast<double>(traced.steps) * 1e6, "us");
  out.set("process.allocs_per_step",
          static_cast<double>(first_study_allocs) /
              static_cast<double>(kSeeds * steps_per_seed * 2),
          "count");
  out.set("trace.overhead_frac", traced.wall_s / reference.wall_s - 1.0, "ratio");
  out.set("trace.unattributed_frac",
          std::max(0.0, 1.0 - traced.step_s / traced.wall_s), "ratio");
}

}  // namespace tegbench
