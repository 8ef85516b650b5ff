#include "util/csv.hpp"

#include <cmath>
#include <cstddef>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/parse.hpp"

namespace tegrec::util {

double parse_csv_cell(std::string_view text) {
  if (text.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::string cell(text);  // std::stod needs a std::string
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
    // Empty cells are kept, a trailing one included ("1,2," is three
    // cells: the bench writers emit them for unmeasured values).
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (first) {
      for_each_field(line, ',', [&](std::string_view name) {
        table.header.emplace_back(name);
      });
      first = false;
      continue;
    }
    std::vector<double> row;
    for_each_field(line, ',', [&](std::string_view cell) {
      row.push_back(parse_csv_cell(cell));
    });
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
