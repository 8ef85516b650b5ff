#include "core/dnor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/objective.hpp"
#include "core/state_codec.hpp"
#include "switchfab/switch_network.hpp"

namespace tegrec::core {

namespace {

/// DNOR's checkpoint blob: decision clock, held configuration, counters
/// and the predictor's temperature history, one line per row.
struct DnorState {
  double next_decision_time_s = 0.0;
  detail::HeldConfig held;
  std::size_t decisions = 0;
  std::size_t switches = 0;
  bool has_history = false;
  std::size_t history_modules = 0;
  std::size_t history_capacity = 0;
  std::vector<std::vector<double>> history_rows;
};

static_assert(util::field_count<DnorState>() == 8,
              "bind(FieldIo&, DnorState&): DnorState gained or lost a field; "
              "bind it, then update this count");

void bind(util::FieldIo& io, DnorState& s) {
  io.field("next_decision_time_s", s.next_decision_time_s);
  bind(io, s.held);
  io.field("decisions", s.decisions);
  io.field("switches", s.switches);
  io.field("has_history", s.has_history);
  if (!s.has_history) return;
  io.field("history_modules", s.history_modules);
  io.field("history_capacity", s.history_capacity);
  std::size_t rows = s.history_rows.size();
  io.field("history_rows", rows);
  // One row is added per line read, so a corrupt count cannot allocate
  // ahead of the lines that back it.
  for (std::size_t r = 0; r < rows; ++r) {
    if (io.parsing()) s.history_rows.emplace_back();
    io.field("row", s.history_rows[r]);
  }
}

}  // namespace

DnorReconfigurer::DnorReconfigurer(const teg::DeviceParams& device,
                                   const power::ConverterParams& converter,
                                   const DnorParams& params,
                                   std::unique_ptr<predict::Predictor> predictor)
    : device_(device), converter_(converter), params_(params),
      predictor_(std::move(predictor)) {
  if (params_.control_period_s <= 0.0) {
    throw std::invalid_argument("DnorReconfigurer: control period <= 0");
  }
  if (params_.tp_s <= 0.0) {
    throw std::invalid_argument("DnorReconfigurer: tp <= 0");
  }
  if (!predictor_) {
    predictor_ = std::make_unique<predict::MlrPredictor>();
  }
  if (params_.history_window <= predictor_->num_lags() + 1) {
    throw std::invalid_argument("DnorReconfigurer: window too small for predictor");
  }
}

std::pair<double, double> DnorReconfigurer::predicted_energies_j(
    const teg::ArrayConfig& c_old, const teg::ArrayConfig& c_new,
    const std::vector<double>& now_temps,
    const std::vector<std::vector<double>>& forecast, double ambient_c) {
  const double dt = params_.control_period_s;
  double e_old = 0.0;
  double e_new = 0.0;
  auto accumulate = [&](const std::vector<double>& temps) {
    row_delta_.resize(temps.size());
    for (std::size_t i = 0; i < temps.size(); ++i) {
      row_delta_[i] = std::max(0.0, temps[i] - ambient_c);
    }
    teg::module_ports(device_, row_delta_, ambient_c, row_ports_);
    row_evaluator_.assign(row_ports_);
    e_old += config_power_w(row_evaluator_, converter_, c_old) * dt;
    e_new += config_power_w(row_evaluator_, converter_, c_new) * dt;
  };
  // The "current second" term of Algorithm 2 plus the tp predicted steps.
  accumulate(now_temps);
  for (const auto& row : forecast) accumulate(row);
  return {e_old, e_new};
}

UpdateResult DnorReconfigurer::update(double time_s,
                                      const std::vector<double>& delta_t_k,
                                      double ambient_c) {
  if (!history_) {
    history_ = std::make_unique<predict::TemperatureHistory>(
        delta_t_k.size(), params_.history_window);
  }
  // The controller senses every period and archives absolute hot-side
  // temperatures (the predictors model T, not dT).
  temps_.resize(delta_t_k.size());
  for (std::size_t i = 0; i < delta_t_k.size(); ++i) {
    temps_[i] = ambient_c + delta_t_k[i];
  }
  history_->push(temps_);

  UpdateResult result;
  if (has_config_ && time_s + 1e-9 < next_decision_time_s_) {
    result.config = current_;
    return result;  // hold between decisions
  }

  teg::module_ports(device_, delta_t_k, ambient_c, ports_);
  evaluator_.assign(ports_);
  teg::ArrayConfig c_new =
      inor_search(ports_, evaluator_, converter_, params_.inor, inor_scratch_);
  ++decisions_;

  bool adopt = true;
  if (has_config_ && c_new != current_) {
    const auto horizon = static_cast<std::size_t>(
        std::llround(params_.tp_s / params_.control_period_s));
    const bool can_predict =
        history_->size() >= params_.history_window && horizon > 0;
    if (can_predict) {
      predictor_->fit(*history_);
      const auto forecast = predictor_->predict_horizon(*history_, horizon);
      const auto [e_old, e_new] =
          predicted_energies_j(current_, c_new, temps_, forecast, ambient_c);
      const std::size_t toggles = switchfab::switch_actuations(current_, c_new);
      const double p_now = config_power_w(evaluator_, converter_, current_);
      // The estimate mirrors what the stepper would charge on actuation,
      // including this controller's own declared compute budget.
      const double e_overhead =
          switchfab::reconfiguration_cost(
              params_.overhead, toggles, p_now,
              algorithm_cost().budget_s(params_.overhead))
              .energy_j;
      // Algorithm 2's rule: switch only if E_old <= E_new - E_overhead.
      adopt = e_old <= e_new - e_overhead;
    }
    // Without enough history the controller stays instantaneous (warmup).
  } else if (has_config_) {
    adopt = false;  // identical configuration: nothing to actuate
  }

  result.invoked = true;
  if (adopt) {
    result.switched = !has_config_ || c_new != current_;
    result.actuate = result.switched;  // actuate only on a real change
    current_ = std::move(c_new);
    has_config_ = true;
    if (result.switched) ++switches_;
  }
  next_decision_time_s_ = time_s + params_.tp_s + 1.0;
  result.config = current_;
  return result;
}

void DnorReconfigurer::reset() {
  history_.reset();
  next_decision_time_s_ = 0.0;
  has_config_ = false;
  current_ = teg::ArrayConfig();
  decisions_ = 0;
  switches_ = 0;
}

bool DnorReconfigurer::supports_checkpoint() const {
  return predictor_->refit_is_pure();
}

std::string DnorReconfigurer::checkpoint_state() const {
  if (!supports_checkpoint()) {
    throw std::logic_error(
        "DNOR: checkpointing unsupported over an impure-refit predictor (" +
        predictor_->name() + ")");
  }
  DnorState s;
  s.next_decision_time_s = next_decision_time_s_;
  s.held = {has_config_, current_.group_starts(), current_.num_modules()};
  s.decisions = decisions_;
  s.switches = switches_;
  s.has_history = history_ != nullptr;
  if (history_) {
    s.history_modules = history_->num_modules();
    s.history_capacity = history_->capacity();
    for (std::size_t r = 0; r < history_->size(); ++r) {
      s.history_rows.push_back(history_->row(r));
    }
  }
  return detail::encode_state("dnor-v1", s);
}

void DnorReconfigurer::restore_checkpoint_state(const std::string& state) {
  if (!supports_checkpoint()) {
    throw std::logic_error(
        "DNOR: checkpointing unsupported over an impure-refit predictor (" +
        predictor_->name() + ")");
  }
  const DnorState s = detail::decode_state<DnorState>("dnor-v1", state);
  std::unique_ptr<predict::TemperatureHistory> history;
  if (s.has_history) {
    history = std::make_unique<predict::TemperatureHistory>(
        s.history_modules, s.history_capacity);
    for (const std::vector<double>& row : s.history_rows) {
      if (row.size() != s.history_modules) {
        throw std::runtime_error("DNOR: history row width mismatch");
      }
      history->push(row);
    }
  }
  teg::ArrayConfig config = s.held.config();
  // Commit only once everything parsed, so a bad blob never half-applies.
  next_decision_time_s_ = s.next_decision_time_s;
  has_config_ = s.held.has_config;
  current_ = std::move(config);
  decisions_ = s.decisions;
  switches_ = s.switches;
  history_ = std::move(history);
}

}  // namespace tegrec::core
