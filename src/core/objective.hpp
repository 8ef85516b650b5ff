// Shared configuration-quality objective.
//
// Section III.B: the charger's conversion efficiency falls off as the
// string voltage leaves the 13.8 V neighbourhood, so configurations are
// compared by the power that actually reaches the battery rail, not by the
// raw array MPP.  All algorithms (INOR's inner loop, EHTR's per-n
// selection, DNOR's switch-or-hold energy estimates) score candidates with
// this one function.
#pragma once

#include <span>

#include "power/converter.hpp"
#include "power/mppt.hpp"
#include "teg/array_evaluator.hpp"
#include "teg/config.hpp"

namespace tegrec::core {

/// Post-converter power of a configuration at the evaluated array's
/// temperature distribution (settled MPPT assumed), scored in O(groups)
/// against a prebuilt ArrayEvaluator.  Every scorer uses this one model:
/// the candidate loops (EHTR, INOR), DNOR's switch-or-hold
/// estimates and the simulator's per-step evaluation.
double config_power_w(const teg::ArrayEvaluator& evaluator,
                      const power::Converter& converter,
                      const teg::ArrayConfig& config);

/// Full operating point (current/voltage/raw/net power) of a configuration.
power::OperatingPoint config_operating_point(const teg::ArrayEvaluator& evaluator,
                                             const power::Converter& converter,
                                             const teg::ArrayConfig& config);

/// Streaming variants: score a candidate from its raw group starts (first
/// 0, strictly increasing, last group implicit to the end) without
/// materialising an ArrayConfig.  Bit-identical to the ArrayConfig
/// overloads; used by EHTR's backtrack-and-score sweep.
double config_power_w(const teg::ArrayEvaluator& evaluator,
                      const power::Converter& converter,
                      std::span<const std::size_t> group_starts);

power::OperatingPoint config_operating_point(
    const teg::ArrayEvaluator& evaluator, const power::Converter& converter,
    std::span<const std::size_t> group_starts);

/// The [nmin, nmax] group-count window of Algorithm 1, derived from the
/// converter's efficient input range and the mean module MPP voltage of a
/// port snapshot (teg::module_ports or a TegArray), summed in module order
/// (Section III.B / V.A).
power::Converter::GroupRange group_count_window(
    std::span<const teg::LinearSource> ports, const power::Converter& converter);

}  // namespace tegrec::core
