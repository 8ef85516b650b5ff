// ExperimentSpec + ExperimentService: determinism, caching, coalescing,
// cancellation, fingerprint stability.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/montecarlo.hpp"
#include "sim/result_io.hpp"
#include "sim/service.hpp"
#include "sim/spec.hpp"
#include "sim/sweep.hpp"
#include "util/atomic_file.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"

namespace tegrec::sim {
namespace {

thermal::TraceGeneratorConfig tiny_config() {
  thermal::TraceGeneratorConfig config;
  // 24 modules: small enough for speed, large enough that the square-grid
  // baseline's string voltage clears the converter's input floor.
  config.layout.num_modules = 24;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 25.0, 30.0, 0.0}};
  return config;
}

ComparisonOptions fast_comparison() {
  ComparisonOptions options;
  options.include_inor = false;
  options.include_ehtr = false;
  return options;
}

ExperimentSpec comparison_spec(std::uint64_t seed = 3) {
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kComparison;
  spec.trace.kind = TraceSource::Kind::kGenerated;
  spec.trace.generator = tiny_config();
  spec.trace.generator.seed = seed;
  spec.comparison = fast_comparison();
  return spec;
}

ExperimentSpec montecarlo_spec(std::size_t num_seeds = 3) {
  ExperimentSpec spec = comparison_spec();
  spec.kind = ExperimentKind::kMonteCarlo;
  spec.mc_num_seeds = num_seeds;
  spec.mc_first_seed = 10;
  return spec;
}

ExperimentSpec sweep_spec() {
  ExperimentSpec spec = comparison_spec();
  spec.kind = ExperimentKind::kSweep;
  spec.sweep_parameter_name = "surface_coupling";
  spec.sweep_values = {0.6, 0.75, 0.9};
  return spec;
}

// Field-by-field equality; every field is deterministic, so this holds
// across re-runs as well as for cache hits and disk round-trips.
void expect_runs_equal(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.energy_output_j, b.energy_output_j);
  EXPECT_EQ(a.switch_overhead_j, b.switch_overhead_j);
  EXPECT_EQ(a.ideal_energy_j, b.ideal_energy_j);
  EXPECT_EQ(a.num_invocations, b.num_invocations);
  EXPECT_EQ(a.num_switch_events, b.num_switch_events);
  EXPECT_EQ(a.total_switch_actuations, b.total_switch_actuations);
  EXPECT_EQ(a.battery_energy_j, b.battery_energy_j);
  EXPECT_EQ(a.final_soc, b.final_soc);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].time_s, b.steps[i].time_s);
    EXPECT_EQ(a.steps[i].gross_power_w, b.steps[i].gross_power_w);
    EXPECT_EQ(a.steps[i].net_power_w, b.steps[i].net_power_w);
    EXPECT_EQ(a.steps[i].ideal_power_w, b.steps[i].ideal_power_w);
    EXPECT_EQ(a.steps[i].invoked, b.steps[i].invoked);
    EXPECT_EQ(a.steps[i].switched, b.steps[i].switched);
    EXPECT_EQ(a.steps[i].switch_actuations, b.steps[i].switch_actuations);
    EXPECT_EQ(a.steps[i].overhead_energy_j, b.steps[i].overhead_energy_j);
  }
}

void expect_results_equal(const ExperimentResult& a,
                          const ExperimentResult& b) {
  ASSERT_EQ(a.kind, b.kind);
  switch (a.kind) {
    case ExperimentKind::kComparison: {
      ASSERT_EQ(a.comparison.runs.size(), b.comparison.runs.size());
      for (std::size_t i = 0; i < a.comparison.runs.size(); ++i) {
        expect_runs_equal(a.comparison.runs[i], b.comparison.runs[i]);
      }
      break;
    }
    case ExperimentKind::kMonteCarlo: {
      ASSERT_EQ(a.monte_carlo.samples.size(), b.monte_carlo.samples.size());
      for (std::size_t i = 0; i < a.monte_carlo.samples.size(); ++i) {
        EXPECT_EQ(a.monte_carlo.samples[i].seed, b.monte_carlo.samples[i].seed);
        EXPECT_EQ(a.monte_carlo.samples[i].gain, b.monte_carlo.samples[i].gain);
        EXPECT_EQ(a.monte_carlo.samples[i].dnor_energy_j,
                  b.monte_carlo.samples[i].dnor_energy_j);
        EXPECT_EQ(a.monte_carlo.samples[i].baseline_energy_j,
                  b.monte_carlo.samples[i].baseline_energy_j);
        EXPECT_EQ(a.monte_carlo.samples[i].dnor_overhead_j,
                  b.monte_carlo.samples[i].dnor_overhead_j);
        EXPECT_EQ(a.monte_carlo.samples[i].dnor_switches,
                  b.monte_carlo.samples[i].dnor_switches);
      }
      EXPECT_EQ(a.monte_carlo.gain.mean(), b.monte_carlo.gain.mean());
      EXPECT_EQ(a.monte_carlo.gain.stddev(), b.monte_carlo.gain.stddev());
      EXPECT_EQ(a.monte_carlo.dnor_energy_j.max(),
                b.monte_carlo.dnor_energy_j.max());
      break;
    }
    case ExperimentKind::kSweep: {
      ASSERT_EQ(a.sweep.size(), b.sweep.size());
      for (std::size_t i = 0; i < a.sweep.size(); ++i) {
        EXPECT_EQ(a.sweep[i].value, b.sweep[i].value);
        EXPECT_EQ(a.sweep[i].dnor_energy_j, b.sweep[i].dnor_energy_j);
        EXPECT_EQ(a.sweep[i].baseline_energy_j, b.sweep[i].baseline_energy_j);
        EXPECT_EQ(a.sweep[i].gain, b.sweep[i].gain);
        EXPECT_EQ(a.sweep[i].dnor_ratio_to_ideal,
                  b.sweep[i].dnor_ratio_to_ideal);
      }
      break;
    }
  }
}

/// A self-cleaning unique temp directory for the disk-cache tests.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("tegrec_" + tag + "_" + std::to_string(::getpid())))
                .string();
    std::filesystem::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ------------------------------------------------- determinism / identity

TEST(Service, ResultsMatchDirectAcrossWorkerCounts) {
  const std::vector<ExperimentSpec> specs = {comparison_spec(),
                                             montecarlo_spec(), sweep_spec()};
  for (const ExperimentSpec& spec : specs) {
    const ExperimentResult direct = run_experiment(spec);
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{4}, util::default_parallelism()}) {
      ServiceOptions options;
      options.num_workers = workers;
      ExperimentService service(options);
      const auto result = service.submit(spec).wait();
      ASSERT_TRUE(result);
      expect_results_equal(direct, *result);
    }
  }
}

TEST(Service, BlockingWrappersMatchDirectEngines) {
  // The public blocking API routes through the shared service; its results
  // must be bit-identical to the direct engines it used to call.
  const thermal::TemperatureTrace trace =
      thermal::generate_trace(tiny_config());
  ComparisonResult direct = detail::run_comparison_direct(trace,
                                                          fast_comparison());
  ComparisonResult wrapped = run_standard_comparison(trace, fast_comparison());
  ASSERT_EQ(direct.runs.size(), wrapped.runs.size());
  for (std::size_t i = 0; i < direct.runs.size(); ++i) {
    expect_runs_equal(direct.runs[i], wrapped.runs[i]);
  }

  MonteCarloOptions mc;
  mc.base_trace = tiny_config();
  mc.comparison = fast_comparison();
  mc.num_seeds = 2;
  const MonteCarloSummary direct_mc = detail::run_monte_carlo_direct(mc);
  const MonteCarloSummary wrapped_mc = run_monte_carlo(mc);
  ASSERT_EQ(direct_mc.samples.size(), wrapped_mc.samples.size());
  for (std::size_t i = 0; i < direct_mc.samples.size(); ++i) {
    EXPECT_EQ(direct_mc.samples[i].gain, wrapped_mc.samples[i].gain);
    EXPECT_EQ(direct_mc.samples[i].dnor_energy_j,
              wrapped_mc.samples[i].dnor_energy_j);
  }

  // Sweeps have no blocking wrapper: a spec naming a registered parameter
  // is the one sweep path, and the shared service runs it like the rest.
  ExperimentSpec sweep = sweep_spec();
  sweep.sweep_values = {0.6, 0.8};
  const auto direct_sweep = detail::sweep_direct(
      sweep.trace.generator, sweep.sweep_values,
      "surface_coupling", fast_comparison(), /*num_threads=*/1);
  const auto wrapped_sweep =
      ExperimentService::shared().submit(sweep).wait()->sweep;
  ASSERT_EQ(direct_sweep.size(), wrapped_sweep.size());
  for (std::size_t i = 0; i < direct_sweep.size(); ++i) {
    EXPECT_EQ(direct_sweep[i].gain, wrapped_sweep[i].gain);
    EXPECT_EQ(direct_sweep[i].dnor_energy_j, wrapped_sweep[i].dnor_energy_j);
  }
}

TEST(Service, WrapperValidationErrorsPropagate) {
  // The blocking wrappers must keep throwing the direct API's exceptions.
  MonteCarloOptions mc;
  mc.base_trace = tiny_config();
  mc.num_seeds = 0;
  EXPECT_THROW(run_monte_carlo(mc), std::invalid_argument);
  ExperimentSpec unknown = sweep_spec();
  unknown.sweep_parameter_name = "warp_factor";
  EXPECT_THROW(ExperimentService::shared().submit(unknown).wait(),
               std::invalid_argument);
  ComparisonOptions none = fast_comparison();
  none.include_dnor = false;
  none.include_baseline = false;
  const thermal::TemperatureTrace trace =
      thermal::generate_trace(tiny_config());
  EXPECT_THROW(run_standard_comparison(trace, none), std::invalid_argument);
}

// --------------------------------------------------------------- caching

TEST(Service, CacheHitSkipsExecution) {
  ExperimentService service((ServiceOptions()));
  const ExperimentSpec spec = comparison_spec();
  const JobHandle first = service.submit(spec);
  const auto first_result = first.wait();
  EXPECT_EQ(service.executions(), 1u);
  EXPECT_FALSE(first.from_cache());

  ExperimentSpec again = spec;
  again.comparison.sim.num_threads = 4;  // execution hint: same cache entry
  const JobHandle second = service.submit(again);
  const auto second_result = second.wait();
  EXPECT_EQ(service.executions(), 1u) << "cache hit must not re-simulate";
  EXPECT_EQ(service.cache_hits(), 1u);
  EXPECT_TRUE(second.from_cache());
  // Same stored object, so trivially bit-identical — including timing.
  EXPECT_EQ(first_result.get(), second_result.get());
}

TEST(Service, SweepSpecSubmittedTwiceIsACacheHit) {
  ExperimentService service((ServiceOptions()));
  const JobHandle first = service.submit(sweep_spec());
  const auto first_result = first.wait();
  const JobHandle second = service.submit(sweep_spec());
  const auto second_result = second.wait();
  EXPECT_EQ(first.fingerprint(), second.fingerprint());
  EXPECT_EQ(service.executions(), 1u) << "cache hit must not re-simulate";
  EXPECT_EQ(service.cache_hits(), 1u);
  EXPECT_TRUE(second.from_cache());
  EXPECT_EQ(first_result.get(), second_result.get());
}

TEST(Service, DiskCacheRoundTripsBitIdentical) {
  TempDir dir("diskcache");
  ServiceOptions options;
  options.cache_dir = dir.path();
  const ExperimentSpec spec = montecarlo_spec();

  std::shared_ptr<const ExperimentResult> produced;
  {
    ExperimentService service(options);
    produced = service.submit(spec).wait();
    EXPECT_EQ(service.executions(), 1u);
    EXPECT_EQ(service.disk_hits(), 0u);
  }
  // A fresh service (fresh memory cache) must load the artifact instead of
  // re-simulating, and the decoded result must be bit-identical, because
  // doubles round-trip exactly at kCsvExactPrecision.
  ExperimentService service(options);
  const JobHandle job = service.submit(spec);
  const auto loaded = job.wait();
  EXPECT_EQ(service.executions(), 0u);
  EXPECT_EQ(service.disk_hits(), 1u);
  EXPECT_TRUE(job.from_cache());
  expect_results_equal(*produced, *loaded);
}

TEST(Service, DiskArtifactRoundTripsEveryKind) {
  for (const ExperimentSpec& spec :
       {comparison_spec(), montecarlo_spec(), sweep_spec()}) {
    const ExperimentResult direct = run_experiment(spec);
    const std::string text = encode_result(direct, spec.fingerprint_text());
    const auto decoded = decode_result(text, spec.fingerprint_text());
    ASSERT_TRUE(decoded.has_value());
    expect_results_equal(direct, *decoded);
    // A payload for a different spec is a miss, never a wrong result.
    EXPECT_FALSE(
        decode_result(text, comparison_spec(99).fingerprint_text()).has_value());
    // Truncation anywhere — the last newline included — is a miss, not an
    // exception, and so is anything after the terminator.
    for (std::size_t cut = 0; cut < text.size(); ++cut) {
      EXPECT_FALSE(decode_result(text.substr(0, cut), spec.fingerprint_text())
                       .has_value())
          << "prefix of " << cut << " bytes";
    }
    EXPECT_FALSE(
        decode_result(text + "# end\n", spec.fingerprint_text()).has_value());
    EXPECT_FALSE(decode_result(text + "\n", spec.fingerprint_text()).has_value());
  }
}

TEST(Service, CorruptDiskArtifactFallsBackToExecution) {
  TempDir dir("corrupt");
  ServiceOptions options;
  options.cache_dir = dir.path();
  const ExperimentSpec spec = comparison_spec();
  {
    ExperimentService service(options);
    service.submit(spec).wait();
  }
  // Truncate the artifact in place.
  const std::string path = dir.path() + "/" + spec.fingerprint() + ".csv";
  ASSERT_TRUE(std::filesystem::exists(path));
  std::filesystem::resize_file(path, 64);

  ExperimentService service(options);
  const auto result = service.submit(spec).wait();
  EXPECT_EQ(service.executions(), 1u) << "corrupt artifact must re-simulate";
  EXPECT_EQ(service.disk_hits(), 0u);
  ASSERT_TRUE(result);
}

TEST(Service, SelfHealsCorruptArtifactsOffDisk) {
  TempDir dir("selfheal");
  ServiceOptions options;
  options.cache_dir = dir.path();
  const ExperimentSpec spec = comparison_spec();
  const std::string path = dir.path() + "/" + spec.fingerprint() + ".csv";
  {
    ExperimentService service(options);
    service.submit(spec).wait();
    std::filesystem::resize_file(path, 64);
    // The damaged artifact is removed the moment it fails to decode, so it
    // can never be served again — and the re-execution republishes it.
  }
  ExperimentService service(options);
  ASSERT_TRUE(service.submit(spec).wait());
  EXPECT_EQ(service.executions(), 1u);
  EXPECT_GT(std::filesystem::file_size(path), 64u)
      << "re-execution must republish a whole artifact over the corrupt one";
}

// ------------------------------------------------- graceful degradation

TEST(Service, UnwritableCacheDirDegradesToUncachedExecution) {
  // The cache path sits *under a regular file* (ENOTCACHEDIR territory that
  // even root cannot create), so every artifact publication fails.  The
  // service must warn once, keep answering, and never fail a submit.
  TempDir dir("rocache");
  std::filesystem::create_directories(dir.path());
  const std::string blocker = dir.path() + "/blocker";
  util::atomic_write_file(blocker, "a file, not a directory");

  ServiceOptions options;
  options.cache_dir = blocker + "/cache";
  std::vector<std::string> warnings;
  options.warn = [&warnings](const std::string& m) { warnings.push_back(m); };
  ExperimentService service(options);
  ASSERT_TRUE(service.submit(comparison_spec(1)).wait());
  ASSERT_TRUE(service.submit(comparison_spec(2)).wait());
  EXPECT_EQ(service.executions(), 2u);
  EXPECT_EQ(service.artifact_store().put_failures(), 2u);
  ASSERT_EQ(warnings.size(), 1u) << "degradation warns once, not per job";
  EXPECT_NE(warnings[0].find("degraded"), std::string::npos) << warnings[0];
}

TEST(Service, DiskFullDegradesToUncachedExecution) {
  // ENOSPC modelled by the injector: every artifact write attempt fails,
  // retries included.  Submissions keep succeeding from memory.
  TempDir dir("enospc");
  util::FaultInjector faults("artifact.write_fail@*");
  ServiceOptions options;
  options.cache_dir = dir.path();
  options.faults = &faults;
  std::vector<std::string> warnings;
  options.warn = [&warnings](const std::string& m) { warnings.push_back(m); };

  ExperimentService service(options);
  const ExperimentSpec spec = comparison_spec();
  ASSERT_TRUE(service.submit(spec).wait());
  EXPECT_EQ(service.executions(), 1u);
  EXPECT_EQ(warnings.size(), 1u);
  // Nothing reached disk — a fresh service re-executes — but this service
  // still serves the job from memory.
  EXPECT_TRUE(service.submit(spec).wait());
  EXPECT_EQ(service.cache_hits(), 1u);
  EXPECT_FALSE(
      std::filesystem::exists(dir.path() + "/" + spec.fingerprint() + ".csv"));
}

TEST(Service, CacheMaxBytesBoundsTheArtifactStore) {
  const ExperimentSpec first = comparison_spec(1);
  std::uintmax_t artifact_size = 0;
  {
    TempDir dir("capsize");
    ServiceOptions options;
    options.cache_dir = dir.path();
    ExperimentService service(options);
    service.submit(first).wait();
    artifact_size = std::filesystem::file_size(dir.path() + "/" +
                                               first.fingerprint() + ".csv");
  }

  TempDir dir("capped");
  ServiceOptions options;
  options.cache_dir = dir.path();
  // Room for roughly two artifacts; the third forces an LRU eviction.
  options.cache_max_bytes = 2 * artifact_size + 256;
  ExperimentService service(options);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ASSERT_TRUE(service.submit(comparison_spec(seed)).wait());
  }
  EXPECT_LE(service.artifact_store().total_bytes(), options.cache_max_bytes);
  EXPECT_GE(service.artifact_store().evictions(), 1u);
}

TEST(Service, CsvSourcesAreContentAddressedAtSubmitTime) {
  TempDir dir("csvsrc");
  std::filesystem::create_directories(dir.path());
  const std::string csv = dir.path() + "/trace.csv";
  thermal::generate_trace(tiny_config()).save_csv(csv);

  ExperimentSpec spec;
  spec.kind = ExperimentKind::kComparison;
  spec.trace.kind = TraceSource::Kind::kCsvFile;
  spec.trace.csv_path = csv;
  spec.comparison = fast_comparison();

  ExperimentService service((ServiceOptions()));
  const JobHandle first = service.submit(spec);
  const auto from_file = first.wait();
  EXPECT_EQ(service.executions(), 1u);

  // Unchanged file content: a hit.
  const JobHandle second = service.submit(spec);
  second.wait();
  EXPECT_EQ(service.executions(), 1u);
  EXPECT_TRUE(second.from_cache());

  // Rewriting the file with different data must miss — the submit-time
  // load is both the content address and what executes, so an edit can
  // never serve (or store) a result for the other content.
  thermal::TraceGeneratorConfig other = tiny_config();
  other.seed = 5;
  thermal::generate_trace(other).save_csv(csv);
  const JobHandle third = service.submit(spec);
  const auto from_edited = third.wait();
  EXPECT_EQ(service.executions(), 2u);
  EXPECT_NE(third.fingerprint(), first.fingerprint());
  EXPECT_NE(from_edited->comparison.runs[0].energy_output_j,
            from_file->comparison.runs[0].energy_output_j);

  // Unreadable file: throws on the submitter, synchronously.
  spec.trace.csv_path = dir.path() + "/missing.csv";
  EXPECT_THROW(service.submit(spec), std::runtime_error);
}

// ---------------------------------------------- coalescing / cancellation

TEST(Service, DuplicateInFlightSpecsCoalesce) {
  ServiceOptions options;
  options.num_workers = 1;
  ExperimentService service(options);
  // The single worker is busy with the blocker while the duplicates are
  // submitted, so neither can have completed (no cache entry yet): equal
  // ids prove they attached to one execution.
  const JobHandle blocker = service.submit(montecarlo_spec(6));
  const JobHandle a = service.submit(comparison_spec());
  const JobHandle b = service.submit(comparison_spec());
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(service.coalesced(), 1u);
  const auto result_a = a.wait();
  const auto result_b = b.wait();
  EXPECT_EQ(result_a.get(), result_b.get());
  blocker.wait();
  EXPECT_EQ(service.executions(), 2u) << "blocker + one coalesced execution";
  EXPECT_EQ(service.cache_hits(), 0u);
}

TEST(Service, CancelledQueuedJobNeverRuns) {
  ServiceOptions options;
  options.num_workers = 1;
  ExperimentService service(options);
  const JobHandle blocker = service.submit(montecarlo_spec(6));
  const JobHandle victim = service.submit(comparison_spec());
  EXPECT_TRUE(victim.cancel());
  EXPECT_EQ(victim.status(), JobStatus::kCancelled);
  EXPECT_FALSE(victim.cancel()) << "second cancel has nothing to do";
  EXPECT_THROW(victim.wait(), std::runtime_error);
  EXPECT_EQ(victim.poll(), nullptr);

  blocker.wait();
  EXPECT_EQ(service.executions(), 1u) << "only the blocker may have run";

  // The cancelled job must not poison its fingerprint: resubmitting the
  // same spec starts a fresh execution instead of attaching to the corpse.
  const JobHandle fresh = service.submit(comparison_spec());
  const auto result = fresh.wait();
  ASSERT_TRUE(result);
  EXPECT_NE(fresh.id(), victim.id());
  EXPECT_EQ(service.executions(), 2u);
}

TEST(Service, CompletedJobCannotBeCancelled) {
  ExperimentService service((ServiceOptions()));
  const JobHandle job = service.submit(comparison_spec());
  job.wait();
  EXPECT_FALSE(job.cancel());
  EXPECT_EQ(job.status(), JobStatus::kDone);
}

// ------------------------------------------------- fingerprint stability

TEST(Spec, EqualSpecsHashEqual) {
  EXPECT_EQ(comparison_spec().fingerprint(), comparison_spec().fingerprint());
  EXPECT_EQ(montecarlo_spec().fingerprint(), montecarlo_spec().fingerprint());
  EXPECT_EQ(sweep_spec().fingerprint(), sweep_spec().fingerprint());
}

TEST(Spec, AnyResultAffectingFieldChangesTheHash) {
  const std::string base = comparison_spec().fingerprint();
  {
    ExperimentSpec s = comparison_spec();
    s.trace.generator.seed = 4;
    EXPECT_NE(s.fingerprint(), base);
  }
  {
    ExperimentSpec s = comparison_spec();
    s.trace.generator.layout.num_modules = 25;
    EXPECT_NE(s.fingerprint(), base);
  }
  {
    ExperimentSpec s = comparison_spec();
    s.trace.generator.segments[0].duration_s += 0.5;
    EXPECT_NE(s.fingerprint(), base);
  }
  {
    ExperimentSpec s = comparison_spec();
    s.comparison.include_ehtr = true;
    EXPECT_NE(s.fingerprint(), base);
  }
  {
    ExperimentSpec s = comparison_spec();
    s.comparison.control_period_s = 1.0;
    EXPECT_NE(s.fingerprint(), base);
  }
  {
    ExperimentSpec s = comparison_spec();
    s.comparison.sim.ehtr_max_groups = 8;
    EXPECT_NE(s.fingerprint(), base);
  }
  {
    ExperimentSpec s = comparison_spec();
    s.comparison.sim.battery.initial_soc += 0.01;
    EXPECT_NE(s.fingerprint(), base);
  }
  {
    ExperimentSpec s = comparison_spec();
    s.kind = ExperimentKind::kMonteCarlo;
    EXPECT_NE(s.fingerprint(), base);
  }
  const std::string mc_base = montecarlo_spec().fingerprint();
  {
    ExperimentSpec s = montecarlo_spec();
    s.mc_num_seeds += 1;
    EXPECT_NE(s.fingerprint(), mc_base);
  }
  {
    ExperimentSpec s = montecarlo_spec();
    s.mc_first_seed += 1;
    EXPECT_NE(s.fingerprint(), mc_base);
  }
  const std::string sweep_base = sweep_spec().fingerprint();
  {
    ExperimentSpec s = sweep_spec();
    s.sweep_values.back() += 0.01;
    EXPECT_NE(s.fingerprint(), sweep_base);
  }
  {
    ExperimentSpec s = sweep_spec();
    s.sweep_parameter_name = "ambient_base_c";
    EXPECT_NE(s.fingerprint(), sweep_base);
  }
}

TEST(Spec, ExecutionHintsDoNotFragmentTheCache) {
  ExperimentSpec a = montecarlo_spec();
  ExperimentSpec b = montecarlo_spec();
  b.mc_num_threads = 7;
  b.comparison.sim.num_threads = 3;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // ...but the hints still round-trip through the canonical text.
  EXPECT_NE(a.canonical_text(), b.canonical_text());
  const ExperimentSpec parsed = ExperimentSpec::from_text(b.canonical_text());
  EXPECT_EQ(parsed.mc_num_threads, 7u);
  EXPECT_EQ(parsed.comparison.sim.num_threads, 3u);
}

TEST(Spec, MonteCarloBaseSeedIsPinned) {
  // The engine overwrites the generator seed per sample, so two MC specs
  // differing only there must share one cache entry.
  ExperimentSpec a = montecarlo_spec();
  ExperimentSpec b = montecarlo_spec();
  b.trace.generator.seed = 999;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // For a comparison the seed is the study.
  ExperimentSpec c = comparison_spec(1);
  ExperimentSpec d = comparison_spec(2);
  EXPECT_NE(c.fingerprint(), d.fingerprint());
}

TEST(Spec, CanonicalTextRoundTrips) {
  for (const ExperimentSpec& spec :
       {comparison_spec(), montecarlo_spec(), sweep_spec()}) {
    const std::string text = spec.canonical_text();
    const ExperimentSpec parsed = ExperimentSpec::from_text(text);
    EXPECT_EQ(parsed.canonical_text(), text);
    EXPECT_EQ(parsed.fingerprint(), spec.fingerprint());
  }
}

TEST(Spec, ParserRejectsGarbage) {
  EXPECT_THROW(ExperimentSpec::from_text("no_such_key = 1\n"),
               std::invalid_argument);
  EXPECT_THROW(ExperimentSpec::from_text("kind = warp_drive\n"),
               std::invalid_argument);
  EXPECT_THROW(ExperimentSpec::from_text("mc.num_seeds = 3x\nkind = montecarlo\n"),
               std::invalid_argument);
  EXPECT_THROW(ExperimentSpec::from_text("kind\n"), std::invalid_argument);
  // Non-finite numbers are garbage too (NaN slips past range checks).
  EXPECT_THROW(ExperimentSpec::from_text("comparison.control_period_s = nan\n"),
               std::invalid_argument);
  EXPECT_THROW(ExperimentSpec::from_text("comparison.control_period_s = inf\n"),
               std::invalid_argument);
  EXPECT_THROW(ExperimentSpec::from_text("kind = comparison\nkind = sweep\n"),
               std::invalid_argument);
  // A list value with an empty field is garbage, not the list without it
  // (canonical_text never writes one, so "1,2," would not round-trip).
  for (const std::string values : {"1,2,", ",1,2", "1,,2", ","}) {
    const std::string text = "kind = sweep\nsweep.values = " + values + "\n";
    EXPECT_THROW(ExperimentSpec::from_text(text), std::invalid_argument)
        << values;
  }
  EXPECT_EQ(ExperimentSpec::from_text("kind = sweep\nsweep.values = 1, 2\n")
                .sweep_values,
            (std::vector<double>{1.0, 2.0}));
  EXPECT_TRUE(ExperimentSpec::from_text("kind = sweep\nsweep.values =\n")
                  .sweep_values.empty());
  // Sparse specs are fine: defaults fill everything unstated.
  const ExperimentSpec sparse = ExperimentSpec::from_text("kind = sweep\n");
  EXPECT_EQ(sparse.kind, ExperimentKind::kSweep);
}

TEST(Spec, RunRejectsConverterParamsOutsideTheModelsRanges) {
  // The parser reads any finite number; the Converter the run builds
  // rejects what its model and the certified power bound cannot take.
  for (const std::string line :
       {"comparison.sim.converter.fixed_loss_w = -0.3\n",
        "comparison.sim.converter.voltage_penalty = -0.01\n",
        "comparison.sim.converter.max_input_power_w = 0\n"}) {
    ExperimentSpec spec = ExperimentSpec::from_text("kind = comparison\n" + line);
    spec.trace.generator = tiny_config();
    EXPECT_THROW(run_experiment(spec), std::invalid_argument) << line;
  }
}

TEST(Spec, InlineTraceSourcesAreContentAddressed) {
  const thermal::TemperatureTrace trace =
      thermal::generate_trace(tiny_config());
  ExperimentSpec spec;
  spec.trace.kind = TraceSource::Kind::kInline;
  spec.trace.inline_trace =
      std::make_shared<thermal::TemperatureTrace>(trace);
  ExperimentSpec same = spec;
  same.trace.inline_trace = std::make_shared<thermal::TemperatureTrace>(trace);
  EXPECT_EQ(spec.fingerprint(), same.fingerprint());

  thermal::TraceGeneratorConfig other_config = tiny_config();
  other_config.seed = 4;
  ExperimentSpec other = spec;
  other.trace.inline_trace = std::make_shared<thermal::TemperatureTrace>(
      thermal::generate_trace(other_config));
  EXPECT_NE(spec.fingerprint(), other.fingerprint());

  // Inline specs serialise (as their hash) but cannot be parsed back.
  EXPECT_THROW(ExperimentSpec::from_text(spec.canonical_text()),
               std::invalid_argument);
}

TEST(Sweep, MutatorRegistryKnowsItsVocabulary) {
  // Unknown names throw before anything runs, listing what exists.
  try {
    detail::sweep_direct(tiny_config(), {1.0}, "warp_factor",
                         fast_comparison(), 1);
    ADD_FAILURE() << "unknown sweep parameter accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("surface_coupling"),
              std::string::npos)
        << e.what();
  }
  // Every registered parameter reaches the simulation: two values give two
  // baseline energies.
  const std::map<std::string, std::vector<double>> values = {
      {"ambient_base_c", {25.0, 40.0}},
      {"duration_scale", {1.0, 2.0}},
      {"exchanger_k_per_length", {1400.0, 700.0}},
      {"num_modules", {24.0, 36.0}},
      {"surface_coupling", {0.72, 0.5}},
      {"thermal_mass_j_k", {110000.0, 20000.0}}};
  ASSERT_EQ(sweep_parameter_names().size(), values.size());
  for (const std::string& name : sweep_parameter_names()) {
    ASSERT_EQ(values.count(name), 1u) << name;
    const auto points = detail::sweep_direct(tiny_config(), values.at(name),
                                             name, fast_comparison(), 1);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_NE(points[0].baseline_energy_j, points[1].baseline_energy_j)
        << name;
  }
}

// Sweep values come from spec files, so out-of-range ones must fail fast
// with std::invalid_argument: a module count that is not a whole number
// >= 1, or a duration scale that makes a segment negative or too long to
// count in steps.  None of these may hang or reach an overflowing cast.
TEST(Sweep, OutOfRangeValuesFailFast) {
  const auto run = [](const std::string& parameter, double value) {
    ExperimentSpec spec = sweep_spec();
    spec.sweep_parameter_name = parameter;
    spec.sweep_values = {value};
    return run_experiment(spec);
  };
  for (const double bad : {-1.0, 0.0, 3.7, 1e300,
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(run("num_modules", bad), std::invalid_argument) << bad;
  }
  for (const double bad : {-1.0, 1e300,
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(run("duration_scale", bad), std::invalid_argument) << bad;
  }
  ExperimentSpec spec = sweep_spec();
  spec.sweep_parameter_name = "num_modules";
  spec.sweep_values = {24.0, -1.0};
  EXPECT_THROW(ExperimentService::shared().submit(spec).wait(),
               std::invalid_argument);

  // Every value is checked before the first point runs.  The base config
  // here cannot generate a trace, so the bad last value can only be the
  // reported error if no point was simulated before it.
  thermal::TraceGeneratorConfig broken = tiny_config();
  broken.segments.front().duration_s = -30.0;
  for (const char* parameter : {"num_modules", "duration_scale"}) {
    try {
      detail::sweep_direct(broken, {1.0, 1.0, 1.0, -1.0}, parameter,
                           fast_comparison(), /*num_threads=*/1);
      ADD_FAILURE() << parameter << ": bad value accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(parameter), std::string::npos)
          << e.what();
    }
  }

  // The same guard holds for a comparison spec file with a negative
  // segment duration.
  const std::string canonical = comparison_spec().canonical_text();
  std::string text;
  for (std::string_view rest = canonical; !rest.empty();) {
    const std::size_t eol = rest.find('\n');
    std::string_view line = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? "" : rest.substr(eol + 1);
    if (line.starts_with("trace.gen.segment.0.duration_s")) {
      line = "trace.gen.segment.0.duration_s = -30";
    }
    text.append(line).push_back('\n');
  }
  ASSERT_NE(text.find("duration_s = -30"), std::string::npos);
  EXPECT_THROW(run_experiment(ExperimentSpec::from_text(text)),
               std::invalid_argument);
}

}  // namespace
}  // namespace tegrec::sim
