// The one `key = value` codec for the library's own text.
//
// Every text format the library writes for itself is built from two
// pieces defined here.  LineReader is the line cursor of every decoder of
// such text (checkpoints, result-cache artifacts, controller state blobs):
// it names the artifact in each error, holds the framing rules in one
// place — a text whose last line lacks its '\n' is cut off, a missing
// line is truncation, a line after the end is trailing data — and throws
// std::runtime_error for all of them.  FieldIo is the field binder: one
// bind(FieldIo&, T&) per struct lists its fields once, and the same
// definition drives every direction —
//   - emit mode appends one "<prefix><key> = <value>" line per field
//     (doubles through util::append_double at exact precision, so every
//     value reads back bit for bit);
//   - keyed read mode looks each key up in a pre-split map (a missing key
//     keeps the bound value, so sparse hand-written spec files work) and
//     reports leftovers as unknown keys; errors are std::invalid_argument;
//   - ordered read mode demands each key as the next line of a
//     LineReader, so a missing, reordered or trailing line throws, and a
//     malformed value throws std::runtime_error naming its key.
// Values read through util/parse.hpp, the library's one number reader.
//
// field_count<T>() makes binding completeness a compile-time fact: next to
// each bind() (or run-table column list) a
//   static_assert(util::field_count<X>() == N, "...");
// fails the build as soon as X gains or loses a data member, so a field
// can never silently miss its serialisation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace tegrec::util {

/// Line cursor over a text the library wrote.  Views into the text, which
/// must outlive the reader.  Every failure throws std::runtime_error
/// "<what>: ..." (or "<what> truncated").
class LineReader {
 public:
  /// `what` names the artifact in errors, e.g. "checkpoint".  Throws unless
  /// `text` is empty or ends in '\n': a last line without its newline is a
  /// cut-off write.
  LineReader(std::string_view text, std::string what);

  /// The next line without its '\n' (and a trailing '\r', CRLF tolerance).
  std::string_view next();

  /// Consumes a "<prefix><rest>" line and returns rest.
  std::string_view expect_prefix(std::string_view prefix);

  /// Consumes a "<prefix>N" line and returns the non-negative integer N.
  std::size_t expect_count(std::string_view prefix);

  /// Consumes a "<prefix>N" line and the N lines after it, returned
  /// '\n'-terminated — the reading side of append_counted_lines.
  std::string counted_lines(std::string_view prefix);

  /// Consumes the "# end" terminator, which must be the last line.
  void expect_end();

  /// Throws unless every line has been consumed.
  void finish() const;

  [[noreturn]] void fail(std::string_view message) const;

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::string what_;
};

/// Appends "<prefix>N\n" and then `text`, whose N lines it counts.
void append_counted_lines(std::string& out, std::string_view prefix,
                          std::string_view text);

/// Binds struct fields to `key = value` lines (see the header comment).
class FieldIo {
 public:
  /// Emit mode: appends to `out`.  Execution hints (exec_field) are
  /// written only with `include_exec`.
  explicit FieldIo(std::string& out, bool include_exec = true);
  /// Keyed read mode over pre-split lines; `what` prefixes errors.
  FieldIo(std::map<std::string, std::string> values, std::string what);
  /// Ordered read mode over the next lines of `lines`.
  explicit FieldIo(LineReader& lines);

  bool parsing() const { return mode_ != Mode::kEmit; }

  /// Prepends `prefix` to every key bound while the scope lives.
  class Scope {
   public:
    Scope(FieldIo& io, std::string_view prefix)
        : io_(io), saved_(io.prefix_.size()) {
      io_.prefix_ += prefix;
    }
    ~Scope() { io_.prefix_.resize(saved_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    FieldIo& io_;
    std::size_t saved_;
  };

  void field(std::string_view key, double& v);
  void field(std::string_view key, bool& v);
  void field(std::string_view key, int& v);
  void field(std::string_view key, std::string& v);
  /// Comma-joined lists on one line, order-preserving; an empty field
  /// ("1,,2", "1,") is malformed.
  void field(std::string_view key, std::vector<double>& v);
  void field(std::string_view key, std::vector<std::size_t>& v);

  /// One overload for every unsigned field (size_t and uint64_t are the
  /// same type on LP64, so separate overloads would collide there).
  template <typename T,
            std::enable_if_t<std::is_unsigned_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  void field(std::string_view key, T& v) {
    std::uint64_t wide = v;
    field_u64(key, wide);
    v = static_cast<T>(wide);
  }

  /// An enum spelled through `names`, a range of (value, name) pairs.
  template <typename Enum, typename Names>
  void enum_field(std::string_view key, Enum& v, const Names& names) {
    std::string spelled;
    for (const auto& [value, name] : names) {
      if (value == v) spelled = name;
    }
    if (!parsing() && spelled.empty()) {
      throw std::logic_error("FieldIo: unmapped enum value for key '" +
                             prefix_ + std::string(key) + "'");
    }
    field(key, spelled);
    for (const auto& [value, name] : names) {
      if (spelled == name) {
        v = value;
        return;
      }
    }
    fail("bad value '" + spelled + "' for key '" + prefix_ + std::string(key) +
         "'");
  }

  /// Execution hints (thread counts): bound as "exec.<key>" like any other
  /// field, but left out of an emit without `include_exec` — they provably
  /// do not affect results, so they must not move a fingerprint.
  template <typename T>
  void exec_field(std::string_view key, T& v) {
    if (mode_ == Mode::kEmit && !include_exec_) return;
    field("exec." + std::string(key), v);
  }

  /// Keyed read mode: whether `key` is present and not yet consumed, so a
  /// binding can tell "absent, keep the default" from "present but empty".
  bool present(std::string_view key) const;

  /// Read modes: every input must have been consumed — keyed mode reports
  /// leftover keys as unknown, ordered mode a trailing line.
  void finish() const;

 private:
  enum class Mode { kEmit, kKeyed, kOrdered };

  void field_u64(std::string_view key, std::uint64_t& v);
  /// Starts an emitted line: "<prefix><key> = ".
  std::string& begin_line(std::string_view key);
  /// Read modes: the raw value bound to `key` (nullopt when a keyed map
  /// lacks it).
  std::optional<std::string_view> take(std::string_view key);
  /// Every field's two directions: `write(out, v)` renders the value;
  /// `v = parse(raw)` reads it, where a parser's std::invalid_argument
  /// becomes, in ordered mode, a std::runtime_error naming the key.
  template <typename T, typename Write, typename Parse>
  void value(std::string_view key, T& v, Write write, Parse parse);
  [[noreturn]] void fail(const std::string& message) const;

  Mode mode_;
  bool include_exec_ = true;
  std::string prefix_;
  std::string* out_ = nullptr;           // emit
  std::map<std::string, std::string> values_;  // keyed
  std::string consumed_;                 // keyed: value last taken
  std::string what_;                     // keyed
  LineReader* lines_ = nullptr;          // ordered
};

namespace detail {

/// Converts to any member type; declared only, for unevaluated use.
struct AnyField {
  template <typename T>
  operator T() const;
};

template <std::size_t>
using AnyFieldAt = AnyField;

template <typename T, std::size_t... I>
consteval bool brace_initializable(std::index_sequence<I...> /*unused*/) {
  return requires { T{AnyFieldAt<I>{}...}; };
}

}  // namespace detail

/// The number of data members of aggregate `T`: the largest N for which
/// `T{f1, ..., fN}` is well-formed.  Nested types, static members and
/// member functions do not count.
template <typename T, std::size_t N = 0>
consteval std::size_t field_count() {
  static_assert(std::is_aggregate_v<T>, "field_count needs an aggregate");
  if constexpr (detail::brace_initializable<T>(
                    std::make_index_sequence<N + 1>{})) {
    return field_count<T, N + 1>();
  } else {
    return N;
  }
}

}  // namespace tegrec::util
