#include "util/csv.hpp"

#include <cmath>
#include <cstddef>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace tegrec::util {

namespace {

// Splits on ',' keeping empty cells — including a trailing one, which
// std::getline silently drops ("1,2," must be three cells: the bench
// writers emit empty cells for unmeasured values).  A trailing '\r' from
// CRLF files is stripped first.
std::vector<std::string> split_cells(std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  std::vector<std::string> cells;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      cells.push_back(line.substr(start));
      return cells;
    }
    cells.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

// Empty cells read back as NaN (the in-memory marker csv_to_string writes
// them from); anything else must parse as a complete double.
double parse_cell(const std::string& cell) {
  if (cell.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(cell, &consumed);
  } catch (const std::exception&) {
    throw std::runtime_error("CSV: non-numeric cell '" + cell + "'");
  }
  while (consumed < cell.size() &&
         (cell[consumed] == ' ' || cell[consumed] == '\t')) {
    ++consumed;
  }
  if (consumed != cell.size()) {
    throw std::runtime_error("CSV: non-numeric cell '" + cell + "'");
  }
  return value;
}

}  // namespace

std::size_t CsvTable::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  throw std::out_of_range("CsvTable: no column named '" + name + "'");
}

std::vector<double> CsvTable::column(const std::string& name) const {
  const std::size_t idx = column_index(name);
  std::vector<double> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    if (idx >= row.size()) throw std::runtime_error("CsvTable: short row");
    out.push_back(row[idx]);
  }
  return out;
}

std::string csv_to_string(const CsvTable& table, int precision) {
  std::string out;
  for (std::size_t i = 0; i < table.header.size(); ++i) {
    if (i > 0) out += ',';
    out += table.header[i];
  }
  out += '\n';
  for (const auto& row : table.rows) append_csv_row(out, row, precision);
  return out;
}

void append_csv_row(std::string& out, std::span<const double> cells,
                    int precision) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += ',';
    // NaN round-trips as an empty cell — the same convention the bench
    // writers use for unmeasured values.  A single-column NaN row would
    // serialise as a blank line, which the reader skips as a separator;
    // spell it "nan" there so the row survives.
    if (!std::isnan(cells[i])) {
      append_double(out, cells[i], precision);
    } else if (cells.size() == 1) {
      out += "nan";
    }
  }
  out += '\n';
}

CsvTable csv_from_string(const std::string& text) {
  CsvTable table;
  std::istringstream is(text);
  std::string line;
  bool first = true;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line == "\r") continue;
    const std::vector<std::string> cells = split_cells(line);
    if (first) {
      table.header = cells;
      first = false;
      continue;
    }
    std::vector<double> row;
    row.reserve(cells.size());
    for (const std::string& cell : cells) row.push_back(parse_cell(cell));
    if (row.size() != table.header.size()) {
      throw std::runtime_error(
          "CSV: row width " + std::to_string(row.size()) +
          " differs from header width " + std::to_string(table.header.size()) +
          " at line " + std::to_string(line_no));
    }
    table.rows.push_back(std::move(row));
    table.row_lines.push_back(line_no);
  }
  return table;
}

void write_csv(const std::string& path, const CsvTable& table, int precision) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("write_csv: cannot open " + path);
  f << csv_to_string(table, precision);
  if (!f) throw std::runtime_error("write_csv: write failed for " + path);
}

CsvTable read_csv(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("read_csv: cannot open " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return csv_from_string(buf.str());
}

}  // namespace tegrec::util
