// Minimal CSV reading/writing for trace persistence and bench output.
//
// The format is deliberately simple: comma separated, first row is an
// optional header, all payload cells are doubles.  Quoting is not needed
// because the library never emits strings with commas.  Empty cells
// (including a trailing one on the line) denote unmeasured values and
// round-trip as NaN — the convention the bench writers use for rows where
// e.g. the legacy search was skipped.
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
  /// 1-based source line of each data row, filled by the readers (blank
  /// lines shift rows off their index, so errors about "row i" could
  /// otherwise point at the wrong place in the file).  Empty for tables
  /// built in memory.
  std::vector<std::size_t> row_lines;

  std::size_t num_rows() const { return rows.size(); }
  std::size_t num_cols() const { return header.size(); }
};

/// Significant digits for cell serialisation.  The default keeps bench
/// output readable; kCsvExactPrecision (max_digits10) round-trips every
/// double bit-exactly — the experiment result cache depends on it.
inline constexpr int kCsvDefaultPrecision = 12;
inline constexpr int kCsvExactPrecision = kExactDoublePrecision;

/// Serialises the table; throws std::runtime_error on IO failure.
void write_csv(const std::string& path, const CsvTable& table,
               int precision = kCsvDefaultPrecision);

/// Parses a CSV file written by write_csv (or hand-authored in the same
/// dialect).  Throws std::runtime_error on IO failure or malformed rows.
CsvTable read_csv(const std::string& path);

/// Serialise into a string (used by tests to avoid touching the disk).
std::string csv_to_string(const CsvTable& table,
                          int precision = kCsvDefaultPrecision);

/// Appends one data row exactly as csv_to_string renders it, '\n'
/// included — for writers that stream rows instead of building a table.
void append_csv_row(std::string& out, std::span<const double> cells,
                    int precision);
CsvTable csv_from_string(const std::string& text);

/// One cell in this dialect: empty reads as NaN, anything else must be a
/// complete double.  Throws std::runtime_error otherwise.
double parse_csv_cell(std::string_view cell);

}  // namespace tegrec::util
