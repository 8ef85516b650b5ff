// Minimal CSV writing for trace persistence, run tables and bench output.
//
// The format is deliberately simple: comma separated, first row is a
// header, all payload cells are doubles.  Quoting is not needed because
// the library never emits strings with commas.  Empty cells (including a
// trailing one on the line) denote unmeasured values and round-trip as
// NaN — the convention the bench writers use for rows where e.g. the
// legacy search was skipped.  Trace files are read back by
// sim::load_trace_csv, run tables cell by cell through parse_csv_cell.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/double_format.hpp"

namespace tegrec::util {

/// In-memory CSV document with a header row and double-valued cells.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<double>> rows;
};

/// Significant digits for cell serialisation.  The default keeps bench
/// output readable; kCsvExactPrecision (max_digits10) round-trips every
/// double bit-exactly — the experiment result cache depends on it.
inline constexpr int kCsvDefaultPrecision = 12;
inline constexpr int kCsvExactPrecision = kExactDoublePrecision;

/// Serialises the table; throws std::runtime_error on IO failure.
void write_csv(const std::string& path, const CsvTable& table,
               int precision = kCsvDefaultPrecision);

/// Serialise into a string (used by tests to avoid touching the disk).
std::string csv_to_string(const CsvTable& table,
                          int precision = kCsvDefaultPrecision);

/// Appends one data row exactly as csv_to_string renders it, '\n'
/// included — for writers that stream rows instead of building a table.
void append_csv_row(std::string& out, std::span<const double> cells,
                    int precision);

/// Reads back one cell append_csv_row wrote: an empty cell or "nan" is
/// NaN, "inf" and "-inf" are infinities, anything else must be a complete
/// double (subnormals included).  Throws std::runtime_error otherwise.
double parse_csv_cell(std::string_view cell);

}  // namespace tegrec::util
