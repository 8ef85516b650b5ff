// The one door through which the library reads a number from text.
//
// strtoul/strtod silently accept garbage ("abc" -> 0, "10x" -> 10); these
// helpers require the whole token to parse (surrounding whitespace is
// tolerated, trailing junk is not) and throw std::invalid_argument with
// the offending text otherwise, so a typo in a flag, a spec file, a
// checkpoint or a telemetry cell fails loudly instead of running the wrong
// study.  The reading counterpart of util::append_double: CLI flags,
// telemetry lines and every `key = value` field of the library's own text
// (spec files, configuration stamps, checkpoint heads, controller state
// blobs — all bound through util::FieldIo) read numbers here, so the
// dialect is the strtod one in the "C" locale, defined in one place.
// Trace CSV files are telemetry lines too: sim::load_trace_csv reads them
// through the telemetry row scan.  Only run-table cells, which may spell
// non-finite and subnormal values, read through util::parse_csv_cell: it
// settles each cell with read_settled_double as below, and reads what that
// leaves ("nan", "inf", "-inf", subnormals, the empty NaN cell) whole with
// std::from_chars; the run-table codec then range-checks its count and
// flag cells (sim/run_table.hpp).
//
// parse_double takes a std::string_view and neither copies nor allocates
// on the common path: std::from_chars reads a plain decimal token, and only
// a token it does not settle (read_settled_double: a normal or zero double
// that fills the whole token) falls back to strtod — a leading '+', hex,
// subnormals, out-of-range and non-finite text, garbage — which then
// accepts it or throws.  Both are correctly rounded, so every accepted
// token reads back to the same bits either way.  Scanners that split a
// line themselves (the telemetry row scan) settle each cell with the same
// read_settled_double and hand the rest to parse_double, so there is one
// number reader and one rule for when its fast path may answer.
//
// The comma-list decoders split through for_each_field, which keeps empty
// fields ("1,2," is three fields, the last one empty), so a stray comma is
// a parse error rather than a value that re-encodes to different bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tegrec::util {

/// `text` without leading and trailing whitespace (std::isspace).
std::string_view trim(std::string_view text);

/// Parses a finite double; rejects empty/partial tokens ("", "10x",
/// "1.2.3"), out-of-range and subnormal values ("1e400", "5e-324") and
/// non-finite values ("nan", "inf").
double parse_double(std::string_view text);

/// parse_double's fast path: std::from_chars reads the number at the front
/// of [first, last).  Returns where the number stops when its value is
/// normal or zero, nullptr otherwise.  The token is settled only when that
/// stop is the end of its cell (`last` for parse_double, the next separator
/// or the end of the line for a scanner); anything else must go through
/// parse_double, which accepts or rejects it with the full dialect.
const char* read_settled_double(const char* first, const char* last,
                                double& value);

/// Parses a non-negative integer; rejects signs, junk and overflow.
std::uint64_t parse_u64(std::string_view text);

/// Parses a signed integer; rejects junk and overflow.
std::int64_t parse_i64(std::string_view text);

/// Accepts 0/1/true/false (the spec-file boolean dialect).
bool parse_bool(std::string_view text);

/// Calls `fn(std::string_view field)` once per `sep`-separated field of
/// `text`, in order, empty fields included: "" is one empty field, "a,,b"
/// three and "a,b," three with the last one empty.  Allocates nothing.
template <typename Fn>
void for_each_field(std::string_view text, char sep, Fn&& fn) {
  std::size_t start = 0;
  for (std::size_t end = text.find(sep); end != std::string_view::npos;
       end = text.find(sep, start)) {
    fn(text.substr(start, end - start));
    start = end + 1;
  }
  fn(text.substr(start));
}

}  // namespace tegrec::util
