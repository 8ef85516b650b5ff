// Wall-clock timing of a controller's decisions, for the benches that
// print Table I's "Average Runtime" column.
//
// Library results, checkpoints and cache artifacts hold no measured time:
// each is a pure function of (spec, input).  The paper's runtime
// comparison is a timing on one host, so it is taken here instead, by a
// decorator that passes name(), update(), reset() and algorithm_cost()
// through to the wrapped controller and times the update() calls that
// report `invoked`.  Decisions pass through untouched, so a timed run's
// SimulationResult equals an untimed one.  Checkpointing is not forwarded:
// the benches never checkpoint.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/reconfigurer.hpp"
#include "util/runtime_clock.hpp"

namespace tegrec::bench {

class TimedReconfigurer final : public core::Reconfigurer {
 public:
  /// Borrows `inner`, which must outlive this decorator.
  explicit TimedReconfigurer(core::Reconfigurer& inner) : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }

  core::UpdateResult update(double time_s, const std::vector<double>& delta_t_k,
                            double ambient_c) override {
    const util::MonotonicTimer timer;
    core::UpdateResult result = inner_->update(time_s, delta_t_k, ambient_c);
    const double elapsed_s = timer.seconds();
    ++steps_;
    if (result.invoked) invoked_s_ += elapsed_s;
    return result;
  }

  /// Resets the wrapped controller and the timing totals, so one timer
  /// covers one run (run_simulation resets its controller first).
  void reset() override {
    inner_->reset();
    invoked_s_ = 0.0;
    steps_ = 0;
  }

  /// The stepper charges this budget on every actuation, so it must be the
  /// wrapped controller's for the timed run to equal an untimed one.
  core::AlgorithmCost algorithm_cost() const override {
    return inner_->algorithm_cost();
  }

  /// Table I's "Average Runtime" [ms]: the wall time of the invoked
  /// updates amortised over every control period since reset(), so a
  /// scheme that decides less often costs less per period.  0.0 before the
  /// first step.
  double avg_runtime_ms() const {
    return steps_ == 0 ? 0.0
                       : 1000.0 * invoked_s_ / static_cast<double>(steps_);
  }

 private:
  core::Reconfigurer* inner_;
  double invoked_s_ = 0.0;
  std::size_t steps_ = 0;
};

}  // namespace tegrec::bench
