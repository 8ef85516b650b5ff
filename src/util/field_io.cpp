#include "util/field_io.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "util/double_format.hpp"
#include "util/parse.hpp"

namespace tegrec::util {

// ------------------------------------------------------------- LineReader

LineReader::LineReader(std::string_view text, std::string what)
    : text_(text), what_(std::move(what)) {
  if (!text_.empty() && text_.back() != '\n') {
    fail("missing final newline (truncated?)");
  }
}

std::string_view LineReader::next() {
  if (pos_ == text_.size()) throw std::runtime_error(what_ + " truncated");
  // The constructor guaranteed a final '\n', so one is always found.
  const std::size_t end = text_.find('\n', pos_);
  std::string_view line = text_.substr(pos_, end - pos_);
  pos_ = end + 1;
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

std::string_view LineReader::expect_prefix(std::string_view prefix) {
  const std::string_view line = next();
  if (!line.starts_with(prefix)) {
    fail("expected '" + std::string(prefix) + "', got '" + std::string(line) +
         "'");
  }
  return line.substr(prefix.size());
}

std::size_t LineReader::expect_count(std::string_view prefix) {
  const std::string_view value = expect_prefix(prefix);
  try {
    return static_cast<std::size_t>(parse_u64(value));
  } catch (const std::invalid_argument& e) {
    fail("bad '" + std::string(prefix) + "': " + e.what());
  }
}

std::string LineReader::counted_lines(std::string_view prefix) {
  const std::size_t count = expect_count(prefix);
  std::string out;
  for (std::size_t i = 0; i < count; ++i) {
    out += next();
    out += '\n';
  }
  return out;
}

void LineReader::expect_end() {
  if (next() != "# end") fail("missing terminator (truncated?)");
  finish();
}

void LineReader::finish() const {
  if (pos_ == text_.size()) return;
  const std::size_t end = text_.find('\n', pos_);
  fail("trailing line '" + std::string(text_.substr(pos_, end - pos_)) + "'");
}

void LineReader::fail(std::string_view message) const {
  throw std::runtime_error(what_ + ": " + std::string(message));
}

void append_counted_lines(std::string& out, std::string_view prefix,
                          std::string_view text) {
  out += prefix;
  out += std::to_string(std::count(text.begin(), text.end(), '\n'));
  out += '\n';
  out += text;
}

// ---------------------------------------------------------------- FieldIo

FieldIo::FieldIo(std::string& out, bool include_exec)
    : mode_(Mode::kEmit), include_exec_(include_exec), out_(&out) {}

FieldIo::FieldIo(std::map<std::string, std::string> values, std::string what)
    : mode_(Mode::kKeyed), values_(std::move(values)), what_(std::move(what)) {}

FieldIo::FieldIo(LineReader& lines) : mode_(Mode::kOrdered), lines_(&lines) {}

std::string& FieldIo::begin_line(std::string_view key) {
  std::string& out = *out_;
  out += prefix_;
  out += key;
  out += " = ";
  return out;
}

std::optional<std::string_view> FieldIo::take(std::string_view key) {
  if (mode_ == Mode::kKeyed) {
    const auto it = values_.find(prefix_ + std::string(key));
    if (it == values_.end()) return std::nullopt;
    consumed_ = std::move(it->second);  // keep the value alive past erase
    values_.erase(it);
    return std::string_view(consumed_);
  }
  const std::string_view line = lines_->next();
  const std::size_t head = prefix_.size() + key.size();
  if (!line.starts_with(prefix_) ||
      line.substr(prefix_.size()).substr(0, key.size()) != key ||
      line.substr(std::min(head, line.size())).substr(0, 3) != " = ") {
    lines_->fail("expected '" + prefix_ + std::string(key) + "', got '" +
                 std::string(line) + "'");
  }
  return line.substr(head + 3);
}

template <typename T, typename Write, typename Parse>
void FieldIo::value(std::string_view key, T& v, Write write, Parse parse) {
  if (mode_ == Mode::kEmit) {
    write(begin_line(key), v);
    *out_ += '\n';
    return;
  }
  const std::optional<std::string_view> raw = take(key);
  if (!raw) return;
  try {
    v = parse(*raw);
  } catch (const std::invalid_argument& e) {
    if (mode_ == Mode::kKeyed) throw;
    lines_->fail("bad '" + prefix_ + std::string(key) + "': " + e.what());
  }
}

namespace {

void write_item(std::string& out, double v) { append_double(out, v); }

template <typename Int>
  requires std::is_integral_v<Int>
void write_item(std::string& out, Int v) {
  out += std::to_string(v);
}

constexpr auto kWriteItem = [](std::string& out, auto v) { write_item(out, v); };

constexpr auto kWriteList = [](std::string& out, const auto& items) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    write_item(out, items[i]);
  }
};

/// Comma-joined list of `parse`d items, "" being the empty list.
template <typename Parse>
auto list_parser(Parse parse) {
  return [parse](std::string_view raw) {
    std::vector<decltype(parse(raw))> items;
    if (raw.empty()) return items;
    for_each_field(raw, ',',
                   [&](std::string_view item) { items.push_back(parse(item)); });
    return items;
  };
}

std::size_t parse_index(std::string_view raw) {
  return static_cast<std::size_t>(parse_u64(raw));
}

}  // namespace

void FieldIo::field(std::string_view key, double& v) {
  value(key, v, kWriteItem, parse_double);
}

void FieldIo::field(std::string_view key, bool& v) {
  value(
      key, v, [](std::string& out, bool b) { out += b ? '1' : '0'; },
      parse_bool);
}

void FieldIo::field(std::string_view key, int& v) {
  value(key, v, kWriteItem, [](std::string_view raw) {
    return static_cast<int>(parse_i64(raw));
  });
}

void FieldIo::field_u64(std::string_view key, std::uint64_t& v) {
  value(key, v, kWriteItem, parse_u64);
}

void FieldIo::field(std::string_view key, std::string& v) {
  value(
      key, v, [](std::string& out, const std::string& s) { out += s; },
      [](std::string_view raw) { return std::string(raw); });
}

void FieldIo::field(std::string_view key, std::vector<double>& v) {
  value(key, v, kWriteList, list_parser(parse_double));
}

void FieldIo::field(std::string_view key, std::vector<std::size_t>& v) {
  value(key, v, kWriteList, list_parser(parse_index));
}

bool FieldIo::present(std::string_view key) const {
  return mode_ == Mode::kKeyed && values_.contains(prefix_ + std::string(key));
}

void FieldIo::finish() const {
  if (mode_ == Mode::kOrdered) {
    lines_->finish();
    return;
  }
  if (values_.empty()) return;
  std::string keys;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (!keys.empty()) keys += ", ";
    keys += "'" + key + "'";
  }
  fail("unknown key(s) " + keys);
}

void FieldIo::fail(const std::string& message) const {
  if (mode_ == Mode::kOrdered) lines_->fail(message);
  throw std::invalid_argument(what_ + ": " + message);
}

}  // namespace tegrec::util
