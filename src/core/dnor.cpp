#include "core/dnor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/objective.hpp"
#include "core/state_codec.hpp"
#include "util/runtime_clock.hpp"

namespace tegrec::core {

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
    const std::vector<std::vector<double>>& forecast, double ambient_c) const {
  const double dt = params_.control_period_s;
  double e_old = 0.0;
  double e_new = 0.0;
  auto accumulate = [&](const std::vector<double>& temps) {
    std::vector<double> delta(temps.size());
    for (std::size_t i = 0; i < temps.size(); ++i) {
      delta[i] = std::max(0.0, temps[i] - ambient_c);
    }
    const teg::TegArray array(device_, delta, ambient_c);
    const teg::ArrayEvaluator evaluator(array);
    e_old += config_power_w(evaluator, converter_, c_old) * dt;
    e_new += config_power_w(evaluator, converter_, c_new) * dt;
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
  std::vector<double> temps(delta_t_k.size());
  for (std::size_t i = 0; i < delta_t_k.size(); ++i) {
    temps[i] = ambient_c + delta_t_k[i];
  }
  history_->push(temps);

  UpdateResult result;
  if (has_config_ && time_s + 1e-9 < next_decision_time_s_) {
    result.config = current_;
    return result;  // hold between decisions
  }

  const util::MonotonicTimer timer;
  const teg::TegArray array(device_, delta_t_k, ambient_c);
  teg::ArrayConfig c_new = inor_search(array, converter_, params_.inor);
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
          predicted_energies_j(current_, c_new, temps, forecast, ambient_c);
      const std::size_t toggles = 3 * current_.boundary_distance(c_new);
      const double p_now =
          config_power_w(teg::ArrayEvaluator(array), converter_, current_);
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

  result.compute_time_s = timer.seconds();
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
  std::string out;
  detail::emit_kv(out, "state", "dnor-v1");
  detail::emit_kv(out, "next_decision_time_s",
                  util::format_double(next_decision_time_s_));
  detail::emit_kv(out, "has_config", has_config_ ? "1" : "0");
  detail::emit_kv(out, "config_starts",
                  detail::join_indices(current_.group_starts()));
  detail::emit_kv(out, "config_modules",
                  std::to_string(current_.num_modules()));
  detail::emit_kv(out, "decisions", std::to_string(decisions_));
  detail::emit_kv(out, "switches", std::to_string(switches_));
  detail::emit_kv(out, "has_history", history_ ? "1" : "0");
  if (history_) {
    detail::emit_kv(out, "history_modules",
                    std::to_string(history_->num_modules()));
    detail::emit_kv(out, "history_capacity",
                    std::to_string(history_->capacity()));
    detail::emit_kv(out, "history_rows", std::to_string(history_->size()));
    for (std::size_t r = 0; r < history_->size(); ++r) {
      detail::emit_kv(out, "row", detail::join_doubles(history_->row(r)));
    }
  }
  return out;
}

void DnorReconfigurer::restore_checkpoint_state(const std::string& state) {
  if (!supports_checkpoint()) {
    throw std::logic_error(
        "DNOR: checkpointing unsupported over an impure-refit predictor (" +
        predictor_->name() + ")");
  }
  detail::KvReader reader(state);
  if (reader.expect("state") != "dnor-v1") {
    throw std::runtime_error("DNOR: unknown state blob version");
  }
  const double next_decision = reader.expect_double("next_decision_time_s");
  const bool has_config = reader.expect_bool("has_config");
  std::vector<std::size_t> starts =
      detail::split_indices(reader.expect("config_starts"));
  const auto config_modules =
      static_cast<std::size_t>(reader.expect_u64("config_modules"));
  const auto decisions = static_cast<std::size_t>(reader.expect_u64("decisions"));
  const auto switches = static_cast<std::size_t>(reader.expect_u64("switches"));
  const bool has_history = reader.expect_bool("has_history");
  std::unique_ptr<predict::TemperatureHistory> history;
  if (has_history) {
    const auto modules =
        static_cast<std::size_t>(reader.expect_u64("history_modules"));
    const auto capacity =
        static_cast<std::size_t>(reader.expect_u64("history_capacity"));
    const auto rows = static_cast<std::size_t>(reader.expect_u64("history_rows"));
    history = std::make_unique<predict::TemperatureHistory>(modules, capacity);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::vector<double> row = detail::split_doubles(reader.expect("row"));
      if (row.size() != modules) {
        throw std::runtime_error("DNOR: history row width mismatch");
      }
      history->push(row);
    }
  }
  reader.finish();

  // ArrayConfig's constructor validates the starts; only assign the members
  // once everything parsed, so a bad blob never half-applies.
  teg::ArrayConfig config;
  if (has_config) {
    config = teg::ArrayConfig(std::move(starts), config_modules);
  }
  next_decision_time_s_ = next_decision;
  has_config_ = has_config;
  current_ = std::move(config);
  decisions_ = decisions;
  switches_ = switches;
  history_ = std::move(history);
}

}  // namespace tegrec::core
