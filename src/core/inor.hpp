// INOR — Instantaneous Near-Optimal Reconfiguration (Algorithm 1).
//
// For each candidate group count n in the converter-friendly window
// [nmin, nmax], INOR places the n-1 interior group boundaries greedily:
// with IMPP prefix sums, boundary j is advanced until the running group's
// summed MPP current best matches Iideal = (1/n) * sum IMPP.  Each
// candidate partition is scored with the charger-aware objective and the
// best kept.  The greedy pass is O(N) per n and the window size is a
// device constant, giving the paper's O(N) overall complexity.
//
// The prefix is built once per search.  Each boundary first probes the
// previous group's length past the last boundary (count / n for the first
// group), gallops from there (O(log of the guess's error)) to the last
// position whose group sum does not yet exceed Iideal, and finishes with
// the paper's stop-at-first-worsening step; tests/inor_oracle.hpp keeps
// the plain linear walk it must equal.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/reconfigurer.hpp"
#include "power/converter.hpp"
#include "teg/array.hpp"
#include "teg/array_evaluator.hpp"

namespace tegrec::core {

struct InorOptions {
  /// Group-count window; when both are 0 the window is derived from the
  /// converter via group_count_window().
  std::size_t nmin = 0;
  std::size_t nmax = 0;
};

/// One greedy partition of the modules into exactly n groups balancing the
/// summed MPP currents (the inner loop of Algorithm 1).  Exposed for tests
/// and for EHTR's comparison.  Requires 1 <= n <= mpp_currents.size() and
/// non-negative currents; zero-current (stone-cold) modules are legal, and
/// an all-zero array gets ArrayConfig::uniform(count, n).
teg::ArrayConfig inor_partition(const std::vector<double>& mpp_currents,
                                std::size_t n);

/// Buffers one search reuses: the MPP-current prefix and two group-start
/// lists (the candidate being scored, the best so far).  Controllers keep
/// one as a member so a steady-state search allocates only its result.
struct InorScratch {
  std::vector<double> prefix;
  std::vector<std::size_t> candidate;
  std::vector<std::size_t> best;
  /// Candidates the last search ran the golden section on; the rest were
  /// pruned by the output-power bound.
  std::size_t scored = 0;
};

/// Full Algorithm 1: scans the n window, scores each greedy partition with
/// the charger-aware objective and returns the best configuration.  Once a
/// candidate has scored, a candidate whose power::OutputPowerBound is
/// strictly below the best score is skipped without running the golden
/// section: it could not strictly beat the best, so the result is the
/// score-every-candidate argmax.
/// Runs over a module port snapshot (teg::module_ports or a TegArray) with
/// an evaluator and scratch of its own.
teg::ArrayConfig inor_search(std::span<const teg::LinearSource> ports,
                             const power::Converter& converter,
                             const InorOptions& options = {});

/// The same search with a caller-owned evaluator, assigned from `ports`,
/// and scratch: the per-step path, which reuses both.
teg::ArrayConfig inor_search(std::span<const teg::LinearSource> ports,
                             const teg::ArrayEvaluator& evaluator,
                             const power::Converter& converter,
                             const InorOptions& options, InorScratch& scratch);

/// Periodic controller wrapping inor_search: re-runs every `period_s`
/// (0.5 s in the paper's evaluation, following [5]) and always adopts the
/// new configuration.
class InorReconfigurer final : public Reconfigurer {
 public:
  InorReconfigurer(const teg::DeviceParams& device,
                   const power::ConverterParams& converter, double period_s = 0.5,
                   const InorOptions& options = {});

  std::string name() const override { return "INOR"; }
  UpdateResult update(double time_s, const std::vector<double>& delta_t_k,
                      double ambient_c) override;
  void reset() override;
  AlgorithmCost algorithm_cost() const override {
    return AlgorithmCost::inor();
  }

  /// Stateless between invocations apart from the (next run time, held
  /// config) pair, so checkpoints round-trip trivially.
  bool supports_checkpoint() const override { return true; }
  std::string checkpoint_state() const override;
  void restore_checkpoint_state(const std::string& state) override;

 private:
  teg::DeviceParams device_;
  power::Converter converter_;
  double period_s_;
  InorOptions options_;
  Held held_;
  // Per-invocation scratch, reused across steps; never checkpointed.
  std::vector<teg::LinearSource> ports_;
  teg::ArrayEvaluator evaluator_;
  InorScratch scratch_;
};

}  // namespace tegrec::core
