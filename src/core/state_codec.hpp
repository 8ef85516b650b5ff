// The controllers' checkpoint blobs, bound through util::FieldIo.
//
// Every Reconfigurer that supports streaming checkpoints serialises its
// mutable state as ordered `key = value` lines (doubles at exact
// precision, so the restored controller replays bit-identically).  Each
// blob is one State struct with one bind(util::FieldIo&, State&) that
// drives both directions: encode_state writes a "state = <version>" line
// and then the bound fields; decode_state reads them back in FieldIo's
// ordered mode, where a missing, reordered, trailing or malformed line —
// including a blob cut anywhere short of its final newline — throws
// std::runtime_error.  decode_state fills a fresh State, so a restore binds
// into a local and commits only once the whole blob has parsed: a bad blob
// never half-applies.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "teg/config.hpp"
#include "util/field_io.hpp"

namespace tegrec::core::detail {

template <typename State>
std::string encode_state(std::string_view version, const State& state) {
  std::string out;
  util::FieldIo io(out);
  std::string tag(version);
  io.field("state", tag);
  // bind only mutates in read mode.
  bind(io, const_cast<State&>(state));
  return out;
}

template <typename State>
State decode_state(std::string_view version, const std::string& text) {
  util::LineReader lines(text, "controller state blob");
  util::FieldIo io(lines);
  std::string tag;
  io.field("state", tag);
  if (tag != version) {
    lines.fail("expected version '" + std::string(version) + "', got '" +
               tag + "'");
  }
  State state;
  bind(io, state);
  io.finish();
  return state;
}

/// The configuration a controller holds, as its blob spells it.
struct HeldConfig {
  bool has_config = false;
  std::vector<std::size_t> starts;
  std::size_t modules = 0;

  /// The held configuration (the empty one when none is held).  Throws
  /// std::runtime_error when the starts do not describe a configuration.
  teg::ArrayConfig config() const {
    if (!has_config) return {};
    try {
      return teg::ArrayConfig(starts, modules);
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(
          std::string("controller state blob: bad held configuration: ") +
          e.what());
    }
  }
};

inline void bind(util::FieldIo& io, HeldConfig& c) {
  io.field("has_config", c.has_config);
  io.field("config_starts", c.starts);
  io.field("config_modules", c.modules);
}

/// The periodic controllers (INOR, EHTR): the next scheduled run and the
/// held configuration.  One struct keeps their blobs structurally
/// identical, told apart by the version tag.
struct PeriodicState {
  double next_run_time_s = 0.0;
  HeldConfig held;
};

inline void bind(util::FieldIo& io, PeriodicState& s) {
  io.field("next_run_time_s", s.next_run_time_s);
  bind(io, s.held);
}

}  // namespace tegrec::core::detail
