// Time-stepped harvesting simulator (Section VI's experimental system).
//
// Replays a TemperatureTrace against one reconfiguration controller wired
// to the full substrate: TEG array -> switch fabric -> MPPT/converter ->
// battery, with the switching-overhead model charged on every actuation.
// Produces the per-step power series behind Figs. 6-7 and the 800 s totals
// of Table I.
#pragma once

#include <string>
#include <vector>

#include "core/reconfigurer.hpp"
#include "power/battery.hpp"
#include "power/converter.hpp"
#include "switchfab/overhead.hpp"
#include "teg/device.hpp"
#include "thermal/trace.hpp"

namespace tegrec::sim {

struct SimulationOptions {
  teg::DeviceParams device;                   ///< TGM-199-1.4-0.8 by default
  power::ConverterParams converter;           ///< LTM4607-class charger
  power::BatteryParams battery;               ///< 13.8 V lead-acid sink
  switchfab::OverheadParams overhead;         ///< actuation cost model
  bool charge_overhead = true;                ///< subtract actuation energy
  /// Worker threads for controllers with parallel inner loops (EHTR's
  /// candidate scoring; util::parallel_for semantics: 0 = hardware,
  /// 1 = inline).  Results are bit-identical for every value.
  std::size_t num_threads = 1;
  /// Cap on EHTR's candidate group counts (0 = all N).  Bounds the DP
  /// parent arena — the dominant allocation at farm scale — at the cost of
  /// never choosing a config with more than this many series groups.
  std::size_t ehtr_max_groups = 0;
  /// EHTR runs the certified warm search (docs/actuation.md): the partition
  /// DP starts from the held config's group count and a provable score
  /// bound prunes the rest.  Decisions are bit-identical to the cold full
  /// sweep, so neither knob is in a spec, the fingerprint or the stream
  /// stamp; tests and benches set `false` to run cold as the oracle.
  bool ehtr_warm_start = true;
  /// How far past the incumbent group count the warm pass solves before
  /// consulting the score bound (0: the bound decides every layer past it).
  std::size_t ehtr_warm_width = 0;
};

/// One control period of the run.
struct StepRecord {
  double time_s = 0.0;
  double gross_power_w = 0.0;    ///< post-converter power, before overhead
  double net_power_w = 0.0;      ///< after overhead amortised into the step
  double ideal_power_w = 0.0;    ///< sum of module MPPs (Fig. 7 normaliser)
  bool invoked = false;          ///< algorithm executed this period
  bool switched = false;         ///< fabric actuated this period
  std::size_t switch_actuations = 0;
  double overhead_energy_j = 0.0;
};

/// Aggregates matching the columns of Table I plus extra diagnostics.
///
/// Partial-run semantics (streamed runs, sim/stepper.hpp): a
/// SimStepper::result() snapshot mid-stream is a valid SimulationResult
/// over the steps consumed so far.  All totals and counters cover exactly
/// `steps.size()` control periods; the derived rates are defined for every
/// prefix, including the empty one:
///   - mean_power_w() and ratio_to_ideal() return 0.0 on an empty prefix.
/// Comparing partial results across algorithms is only meaningful at equal
/// step counts (they are time-integrals, not rates).
struct SimulationResult {
  std::string algorithm;
  std::vector<StepRecord> steps;

  double energy_output_j = 0.0;      ///< Table I "Energy Output"
  double switch_overhead_j = 0.0;    ///< Table I "Switch Overhead"
  double ideal_energy_j = 0.0;
  std::size_t num_invocations = 0;
  std::size_t num_switch_events = 0;
  std::size_t total_switch_actuations = 0;
  double battery_energy_j = 0.0;     ///< energy actually absorbed by the battery
  double final_soc = 0.0;

  double mean_power_w() const;
  double ratio_to_ideal() const;
};

/// Replays `trace` through `controller`.  The controller is reset() first;
/// the first configuration is installed free of charge (the array has to be
/// wired somehow before the drive starts).
SimulationResult run_simulation(core::Reconfigurer& controller,
                                const thermal::TemperatureTrace& trace,
                                const SimulationOptions& options = {});

}  // namespace tegrec::sim
