#include "util/csv.hpp"

#include <charconv>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <system_error>

#include "util/parse.hpp"

namespace tegrec::util {

double parse_csv_cell(std::string_view cell) {
  if (cell.empty()) return std::numeric_limits<double>::quiet_NaN();
  const char* const last = cell.data() + cell.size();
  double value = 0.0;
  if (read_settled_double(cell.data(), last, value) == last) return value;
  // What the settled read leaves of the writer's output — "nan", "inf",
  // "-inf" and subnormals — from_chars takes whole.
  const auto [end, ec] =
      std::from_chars(cell.data(), last, value, std::chars_format::general);
  if (ec != std::errc() || end != last) {
    throw std::runtime_error("CSV: non-numeric cell '" + std::string(cell) +
                             "'");
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

void write_csv(const std::string& path, const CsvTable& table, int precision) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("write_csv: cannot open " + path);
  f << csv_to_string(table, precision);
  if (!f) throw std::runtime_error("write_csv: write failed for " + path);
}

}  // namespace tegrec::util
