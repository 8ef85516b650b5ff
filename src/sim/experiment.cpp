#include "sim/experiment.hpp"

#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sim/checkpoint.hpp"
#include "sim/service.hpp"
#include "sim/spec.hpp"

namespace tegrec::sim {

const SimulationResult& ComparisonResult::by_name(const std::string& name) const {
  for (const SimulationResult& r : runs) {
    if (r.algorithm == name) return r;
  }
  throw std::out_of_range("ComparisonResult: no run named '" + name + "'");
}

double ComparisonResult::dnor_gain_over_baseline() const {
  const double base = by_name("Baseline").energy_output_j;
  // A zero-harvest baseline (cold-soak traces can leave the fixed grid
  // below the converter threshold) has no defined gain; 0.0 would read as
  // "no improvement" when DNOR in fact harvested everything.  NaN follows
  // the library's unmeasured-value convention (empty CSV cells, JSON null).
  if (base <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  return by_name("DNOR").energy_output_j / base - 1.0;
}

double ComparisonResult::overhead_reduction_ratio() const {
  const double dnor = by_name("DNOR").switch_overhead_j;
  if (dnor <= 0.0) return 0.0;
  return by_name("EHTR").switch_overhead_j / dnor;
}

ComparisonResult run_standard_comparison(const thermal::TemperatureTrace& trace,
                                         const ComparisonOptions& options) {
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kComparison;
  spec.trace.kind = TraceSource::Kind::kInline;
  // Non-owning view of the caller's trace (a farm-scale trace is ~100 MB;
  // copying it on every call would dwarf a cache hit).  Safe because this
  // wrapper blocks in wait() until the job is terminal — the only reads of
  // the spec's trace (fingerprinting here, execution on a worker) happen
  // before wait() returns, and nothing reads a terminal job's spec.
  spec.trace.inline_trace = std::shared_ptr<const thermal::TemperatureTrace>(
      std::shared_ptr<const void>(), &trace);
  spec.comparison = options;
  return ExperimentService::shared().submit(spec).wait()->comparison;
}

namespace detail {

ComparisonResult run_comparison_direct(const thermal::TemperatureTrace& trace,
                                       const ComparisonOptions& options) {
  const std::pair<bool, StreamScheme> schemes[] = {
      {options.include_dnor, StreamScheme::kDnor},
      {options.include_inor, StreamScheme::kInor},
      {options.include_ehtr, StreamScheme::kEhtr},
      {options.include_baseline, StreamScheme::kBaseline},
  };
  ComparisonResult out;
  for (const auto& [selected, scheme] : schemes) {
    if (!selected) continue;
    const std::unique_ptr<core::Reconfigurer> controller =
        make_stream_controller(StreamConfig{scheme, options.control_period_s,
                                            trace.dt_s(), trace.num_modules(),
                                            options.sim});
    out.runs.push_back(run_simulation(*controller, trace, options.sim));
  }
  if (out.runs.empty()) {
    throw std::invalid_argument("run_standard_comparison: no schemes selected");
  }
  return out;
}

}  // namespace detail

}  // namespace tegrec::sim
