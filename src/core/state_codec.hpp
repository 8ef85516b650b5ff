// Tiny key = value codec shared by the controllers' checkpoint blobs.
//
// Every Reconfigurer that supports streaming checkpoints serialises its
// mutable state as ordered `key = value` lines (doubles at %.17g through
// util::append_double, so the restored controller replays bit-identically).
// The helpers here keep the four implementations on one dialect: emit_kv
// appends a line, KvReader consumes lines in declaration order and throws
// std::runtime_error on any deviation — a truncated or reordered blob, or a
// malformed value, must fail the restore loudly, never half-apply.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "teg/config.hpp"
#include "util/double_format.hpp"
#include "util/parse.hpp"

namespace tegrec::core::detail {

inline void emit_kv(std::string& out, const std::string& key,
                    const std::string& value) {
  out += key;
  out += " = ";
  out += value;
  out += '\n';
}

/// Comma-joined %.17g doubles ("" for an empty vector).
inline std::string join_doubles(const std::vector<double>& values) {
  std::string joined;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) joined += ',';
    util::append_double(joined, values[i]);
  }
  return joined;
}

/// Comma-joined unsigned indices (group starts).
inline std::string join_indices(const std::vector<std::size_t>& values) {
  std::string joined;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) joined += ',';
    joined += std::to_string(values[i]);
  }
  return joined;
}

/// Sequential reader over `key = value` lines.  Keys are demanded in the
/// exact order the writer emitted them: state blobs are versioned wholes,
/// not grab-bags, so a missing/extra/reordered line is corruption.
class KvReader {
 public:
  explicit KvReader(const std::string& text) : is_(text) {}

  /// Consumes one line, requiring its key; returns the value text.
  std::string expect(const std::string& key) {
    std::string line;
    if (!std::getline(is_, line)) {
      throw std::runtime_error("controller state blob truncated (expected '" +
                               key + "')");
    }
    const std::string prefix = key + " = ";
    if (line.rfind(prefix, 0) != 0) {
      throw std::runtime_error("controller state blob: expected '" + key +
                               "', got '" + line + "'");
    }
    return line.substr(prefix.size());
  }

  double expect_double(const std::string& key) {
    return parsed(key, util::parse_double);
  }

  std::uint64_t expect_u64(const std::string& key) {
    return parsed(key, util::parse_u64);
  }

  bool expect_bool(const std::string& key) {
    return parsed(key, util::parse_bool);
  }

  /// A join_doubles list; an empty field ("1,2,", ",1", "1,,2") is
  /// malformed.
  std::vector<double> expect_doubles(const std::string& key) {
    return parsed(key, [](std::string_view text) {
      std::vector<double> values;
      if (text.empty()) return values;
      util::for_each_field(text, ',', [&](std::string_view field) {
        values.push_back(util::parse_double(field));
      });
      return values;
    });
  }

  /// A join_indices list; an empty field is malformed.
  std::vector<std::size_t> expect_indices(const std::string& key) {
    return parsed(key, [](std::string_view text) {
      std::vector<std::size_t> values;
      if (text.empty()) return values;
      util::for_each_field(text, ',', [&](std::string_view field) {
        values.push_back(static_cast<std::size_t>(util::parse_u64(field)));
      });
      return values;
    });
  }

  /// The blob must be fully consumed — trailing lines are corruption.
  void finish() {
    std::string line;
    if (std::getline(is_, line)) {
      throw std::runtime_error("controller state blob: trailing line '" +
                               line + "'");
    }
  }

 private:
  /// Reads `key`'s value through `parse`; a malformed value is a malformed
  /// blob, reported as the std::runtime_error restores promise.
  template <typename Parse>
  std::invoke_result_t<Parse&, std::string_view> parsed(const std::string& key,
                                                        Parse&& parse) {
    const std::string text = expect(key);
    try {
      return parse(std::string_view(text));
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error("controller state blob: bad '" + key +
                               "': " + e.what());
    }
  }

  std::istringstream is_;
};

// The periodic controllers (INOR, EHTR) hold exactly one mutable triple:
// next scheduled run time, whether a configuration is held, and the held
// configuration.  One shared codec keeps their blobs structurally identical
// (distinguished by the version tag) and their restores all-or-nothing.

struct PeriodicState {
  double next_run_time_s = 0.0;
  bool has_config = false;
  teg::ArrayConfig current;
};

inline std::string encode_periodic_state(const std::string& version,
                                         const PeriodicState& state) {
  std::string out;
  emit_kv(out, "state", version);
  emit_kv(out, "next_run_time_s", util::format_double(state.next_run_time_s));
  emit_kv(out, "has_config", state.has_config ? "1" : "0");
  emit_kv(out, "config_starts", join_indices(state.current.group_starts()));
  emit_kv(out, "config_modules", std::to_string(state.current.num_modules()));
  return out;
}

inline PeriodicState decode_periodic_state(const std::string& version,
                                           const std::string& text) {
  KvReader reader(text);
  if (reader.expect("state") != version) {
    throw std::runtime_error("controller state blob: expected version '" +
                             version + "'");
  }
  PeriodicState state;
  state.next_run_time_s = reader.expect_double("next_run_time_s");
  state.has_config = reader.expect_bool("has_config");
  std::vector<std::size_t> starts = reader.expect_indices("config_starts");
  const auto modules = static_cast<std::size_t>(reader.expect_u64("config_modules"));
  reader.finish();
  if (state.has_config) {
    state.current = teg::ArrayConfig(std::move(starts), modules);
  }
  return state;
}

}  // namespace tegrec::core::detail
