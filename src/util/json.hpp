// Minimal JSON document model for the batch CLI's machine-readable output.
//
// Just enough of RFC 8259 for round-trippable tool output: null, bool,
// finite numbers, strings, arrays and objects (insertion-ordered, so a
// dumped document is byte-stable).  dump() and parse() are inverses for
// every value this library produces; parse() exists so tests and
// downstream tools can consume `tegrec_cli batch --json` without another
// dependency.  Not a general-purpose parser: no \uXXXX escapes beyond
// ASCII, no duplicate-key policing.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace tegrec::util::json {

class Value;

using Array = std::vector<Value>;
using Object = std::vector<std::pair<std::string, Value>>;

/// Tagged union over the JSON value kinds.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : kind_(Kind::kNull) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}                  // NOLINT
  Value(double n) : kind_(Kind::kNumber), number_(n) {}            // NOLINT
  Value(int n) : Value(static_cast<double>(n)) {}                  // NOLINT
  Value(std::size_t n) : Value(static_cast<double>(n)) {}          // NOLINT
  Value(const char* s) : kind_(Kind::kString), string_(s) {}       // NOLINT
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT
  Value(Array a);                                                  // NOLINT
  Value(Object o);                                                 // NOLINT

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  /// Typed accessors; throw std::runtime_error on a kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; throws std::out_of_range if absent.
  const Value& at(const std::string& key) const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<const Array> array_;    // shared: Value stays copyable/cheap
  std::shared_ptr<const Object> object_;
};

/// Serialises a value; `indent` > 0 pretty-prints with that many spaces.
/// Non-finite numbers throw std::invalid_argument (JSON has no NaN/Inf).
std::string dump(const Value& value, int indent = 0);

/// Parses a JSON document; throws std::runtime_error with a byte offset on
/// malformed input or trailing junk.
Value parse(const std::string& text);

}  // namespace tegrec::util::json
