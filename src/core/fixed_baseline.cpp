#include "core/fixed_baseline.hpp"

#include "core/state_codec.hpp"

namespace tegrec::core {

namespace {

/// The baseline's checkpoint blob: whether the wiring is still to install.
struct BaselineState {
  bool first = true;
};

void bind(util::FieldIo& io, BaselineState& s) { io.field("first", s.first); }

}  // namespace

FixedBaselineReconfigurer::FixedBaselineReconfigurer(teg::ArrayConfig config)
    : config_(std::move(config)) {}

FixedBaselineReconfigurer FixedBaselineReconfigurer::square_grid(
    std::size_t num_modules) {
  const auto side = static_cast<std::size_t>(
      std::llround(std::sqrt(static_cast<double>(num_modules))));
  const std::size_t groups = side == 0 ? 1 : side;
  return FixedBaselineReconfigurer(teg::ArrayConfig::uniform(num_modules, groups));
}

UpdateResult FixedBaselineReconfigurer::update(
    double /*time_s*/, const std::vector<double>& /*delta_t_k*/,
    double /*ambient_c*/) {
  UpdateResult result;
  result.config = config_;
  // The very first call "installs" the wiring; afterwards nothing runs and
  // nothing switches, so the baseline carries no algorithm overhead.
  result.switched = first_;
  result.actuate = first_;
  first_ = false;
  return result;
}

void FixedBaselineReconfigurer::reset() { first_ = true; }

std::string FixedBaselineReconfigurer::checkpoint_state() const {
  return detail::encode_state("baseline-v1", BaselineState{first_});
}

void FixedBaselineReconfigurer::restore_checkpoint_state(
    const std::string& state) {
  first_ = detail::decode_state<BaselineState>("baseline-v1", state).first;
}

}  // namespace tegrec::core
