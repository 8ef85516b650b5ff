#include "core/dnor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/objective.hpp"
#include "core/state_codec.hpp"

namespace tegrec::core {

namespace {

/// DNOR's checkpoint blob: the held decision and the predictor's
/// temperature history, one line per row.
struct DnorState {
  Held held;
  bool has_history = false;
  std::size_t history_modules = 0;
  std::size_t history_capacity = 0;
  std::vector<std::vector<double>> history_rows;
};

static_assert(util::field_count<DnorState>() == 5,
              "bind(FieldIo&, DnorState&): DnorState gained or lost a field; "
              "bind it, then update this count");

void bind(util::FieldIo& io, DnorState& s) {
  bind(io, s.held);
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

  if (held_.holding(time_s)) return held_.hold();  // between decisions

  teg::module_ports(device_, delta_t_k, ambient_c, ports_);
  evaluator_.assign(ports_);
  teg::ArrayConfig c_new =
      inor_search(ports_, evaluator_, converter_, params_.inor, inor_scratch_);

  // Adopting an unchanged configuration neither switches nor actuates.
  // Without enough history the controller stays instantaneous (warmup).
  bool adopt = true;
  const auto horizon = static_cast<std::size_t>(
      std::llround(params_.tp_s / params_.control_period_s));
  if (held_.has_config && c_new != held_.config &&
      history_->size() >= params_.history_window && horizon > 0) {
    predictor_->fit(*history_);
    const auto forecast = predictor_->predict_horizon(*history_, horizon);
    const auto [e_old, e_new] =
        predicted_energies_j(held_.config, c_new, temps_, forecast, ambient_c);
    adopt = switch_pays(params_.overhead, algorithm_cost(), held_.config, c_new,
                        config_power_w(evaluator_, converter_, held_.config),
                        e_old, e_new);
  }
  return held_.decide(std::move(c_new), adopt, /*always_actuate=*/false,
                      time_s + params_.tp_s + 1.0);
}

void DnorReconfigurer::reset() {
  history_.reset();
  held_ = Held();
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
  s.held = held_;
  s.has_history = history_ != nullptr;
  if (history_) {
    s.history_modules = history_->num_modules();
    s.history_capacity = history_->capacity();
    for (std::size_t r = 0; r < history_->size(); ++r) {
      s.history_rows.push_back(history_->row(r));
    }
  }
  return detail::encode_state("dnor-v2", s);
}

void DnorReconfigurer::restore_checkpoint_state(const std::string& state) {
  if (!supports_checkpoint()) {
    throw std::logic_error(
        "DNOR: checkpointing unsupported over an impure-refit predictor (" +
        predictor_->name() + ")");
  }
  DnorState s = detail::decode_state<DnorState>("dnor-v2", state);
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
  // Commit only once everything parsed, so a bad blob never half-applies.
  held_ = std::move(s.held);
  history_ = std::move(history);
}

}  // namespace tegrec::core
