// Shared configuration-quality objective.
//
// Section III.B: the charger's conversion efficiency falls off as the
// string voltage leaves the 13.8 V neighbourhood, so configurations are
// compared by the power that actually reaches the battery rail, not by the
// raw array MPP.  config_power_w is that score: the O(groups) port model
// from a teg::ArrayEvaluator fed through power::optimal_operating_point.
// Every algorithm scores candidates with it (INOR's inner loop, EHTR's
// per-n selection, DNOR's switch-or-hold energy estimates, the simulator's
// per-step evaluation); a caller that needs the full operating point calls
// power::optimal_operating_point on the evaluator's port itself.
#pragma once

#include <span>

#include "core/algorithm_cost.hpp"
#include "power/converter.hpp"
#include "power/mppt.hpp"
#include "teg/array_evaluator.hpp"
#include "teg/config.hpp"

namespace tegrec::core {

/// Post-converter power of a configuration at the evaluated array's
/// temperature distribution (settled MPPT assumed), scored in O(groups)
/// against a prebuilt ArrayEvaluator.
double config_power_w(const teg::ArrayEvaluator& evaluator,
                      const power::Converter& converter,
                      const teg::ArrayConfig& config);

/// The [nmin, nmax] group-count window of Algorithm 1, derived from the
/// converter's efficient input range and the mean module MPP voltage of a
/// port snapshot (teg::module_ports or a TegArray), summed in module order
/// (Section III.B / V.A).
power::Converter::GroupRange group_count_window(
    std::span<const teg::LinearSource> ports, const power::Converter& converter);

/// Algorithm 2's switch-or-hold rule: moving from `held` to `next` pays
/// when E_old <= E_new - E_overhead, with E_overhead charged as the stepper
/// charges an actuation: the toggled switches, the output `p_now_w` lost
/// while the array is offline, and the controller's declared compute
/// budget `cost`.
bool switch_pays(const switchfab::OverheadParams& overhead,
                 const AlgorithmCost& cost, const teg::ArrayConfig& held,
                 const teg::ArrayConfig& next, double p_now_w, double e_old_j,
                 double e_new_j);

}  // namespace tegrec::core
