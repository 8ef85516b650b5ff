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
#include <utility>
#include <vector>

#include "core/reconfigurer.hpp"
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

}  // namespace tegrec::core::detail

namespace tegrec::core {

static_assert(util::field_count<Held>() == 3,
              "bind(FieldIo&, Held&): Held gained or lost a field; bind it, "
              "then update this count");

/// A controller's held decision, as every blob spells it.  The periodic
/// controllers' blobs are this alone, told apart by the version tag.
/// Parsing throws std::runtime_error when the starts do not describe a
/// configuration.
inline void bind(util::FieldIo& io, Held& h) {
  io.field("next_run_time_s", h.next_run_time_s);
  io.field("has_config", h.has_config);
  std::vector<std::size_t> starts = h.config.group_starts();
  std::size_t modules = h.config.num_modules();
  io.field("config_starts", starts);
  io.field("config_modules", modules);
  if (!io.parsing() || !h.has_config) return;
  try {
    h.config = teg::ArrayConfig(std::move(starts), modules);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(
        std::string("controller state blob: bad held configuration: ") +
        e.what());
  }
}

}  // namespace tegrec::core
