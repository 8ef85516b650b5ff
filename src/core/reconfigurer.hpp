// Common interface of all reconfiguration controllers.
//
// The simulator calls update() once per control period with the freshly
// sensed temperature distribution; the controller returns the
// configuration the array should use until the next call, whether the
// algorithm actually executed this period (sensing/compute overhead is
// charged only then) and whether the fabric must actuate.  Nothing in the
// result is measured: it is a pure function of the inputs and the
// controller's state, so results, checkpoints and cache artifacts are too.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm_cost.hpp"
#include "teg/config.hpp"

namespace tegrec::core {

struct UpdateResult {
  teg::ArrayConfig config;     ///< configuration to use from now on
  bool invoked = false;        ///< the decision algorithm ran this period
  bool switched = false;       ///< config differs from the previous one
  /// The controller commands a fabric rebuild this period.  The periodic
  /// schemes (INOR, EHTR) rebuild on every invocation — the paper's
  /// "switching at every time point" — even when the configuration happens
  /// to repeat; DNOR actuates only when its prediction rule says to.
  bool actuate = false;
};

/// A controller's decision between runs: when the next run is due and the
/// configuration in force.  One type, so the cadence test and the adopt
/// bookkeeping are written once.
struct Held {
  double next_run_time_s = 0.0;
  bool has_config = false;
  teg::ArrayConfig config;  ///< empty until one is held

  /// True while a config is held and `time_s` is short of the due time.
  /// The slack covers the rounding between last run + period and the
  /// caller's clock: 8 ulps of the due time, at least 1e-9 s (one ulp
  /// exceeds 1e-9 s from 2^24 s, about 194 days, on).
  bool holding(double time_s) const {
    const double ulp =
        std::nextafter(next_run_time_s, HUGE_VAL) - next_run_time_s;
    return has_config && time_s + std::max(1e-9, 8.0 * ulp) < next_run_time_s;
  }

  /// The result of a period spent holding.
  UpdateResult hold() const { return {config}; }

  /// Records a run that chose `next`, due again at `next_due_s`.  Adopted,
  /// `next` is held and switched when it differs; it actuates when it
  /// switched or `always_actuate` (a periodic rebuild).  Rejected, the held
  /// configuration stays.
  UpdateResult decide(teg::ArrayConfig next, bool adopt, bool always_actuate,
                      double next_due_s) {
    UpdateResult result;
    result.invoked = true;
    if (adopt) {
      result.switched = !has_config || next != config;
      result.actuate = always_actuate || result.switched;
      config = std::move(next);
      has_config = true;
    }
    next_run_time_s = next_due_s;
    result.config = config;
    return result;
  }
};

class Reconfigurer {
 public:
  virtual ~Reconfigurer() = default;

  virtual std::string name() const = 0;

  /// `delta_t_k[i]` is module i's sensed face temperature difference at
  /// `time_s`; `ambient_c` the heatsink temperature.
  virtual UpdateResult update(double time_s, const std::vector<double>& delta_t_k,
                              double ambient_c) = 0;

  /// Resets internal state (history, held configuration) for a fresh run.
  virtual void reset() = 0;

  /// The deterministic compute budget one invocation of this controller
  /// charges the simulation (see core/algorithm_cost.hpp).  A declared
  /// weight, not a measurement: the stepper charges
  /// algorithm_cost().budget_s(overhead) whenever update() reports
  /// invoked, keeping simulated physics independent of implementation
  /// speed.  Defaults to the historical flat unit budget.
  virtual AlgorithmCost algorithm_cost() const { return {}; }

  // ------------------------------------------------ streaming checkpoints
  //
  // A checkpointable controller can externalise its entire mutable state as
  // a versioned text blob and reinstate it later, such that the restored
  // controller's future update() stream is bit-identical to the original's.
  // The blob is opaque to callers (sim::SimStepper embeds it verbatim in
  // its checkpoint file); each implementation guards its own format line.
  // The default says no — a controller that cannot honour the bit-identity
  // contract (e.g. DNOR over a BPNN predictor, whose refit RNG advances
  // across fits) must not pretend otherwise.

  /// True when checkpoint_state()/restore_checkpoint_state() round-trip.
  virtual bool supports_checkpoint() const { return false; }

  /// Serialises the mutable state.  Throws std::logic_error when
  /// supports_checkpoint() is false.
  virtual std::string checkpoint_state() const {
    throw std::logic_error(name() + ": checkpointing not supported");
  }

  /// Reinstates a checkpoint_state() blob.  Throws std::logic_error when
  /// unsupported and std::runtime_error on a malformed blob.
  virtual void restore_checkpoint_state(const std::string& state) {
    (void)state;
    throw std::logic_error(name() + ": checkpointing not supported");
  }
};

}  // namespace tegrec::core
