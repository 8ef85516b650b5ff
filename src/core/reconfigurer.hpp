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

#include <stdexcept>
#include <string>
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
