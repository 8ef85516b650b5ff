// The run-table codec: simulation runs and result rows as `# table` blocks.
//
// Checkpoints (sim/checkpoint.hpp) and result-cache artifacts
// (sim/result_io.hpp) both carry a SimulationResult as one line naming its
// algorithm, a one-row summary table and a step table; the result cache
// writes its Monte-Carlo sample and sweep point tables in the same block.
// A block is a "# table rows = N" line, a CSV header naming the columns
// and N CSV rows at util::kCsvExactPrecision, so every double reads back
// bit for bit (NaN travels as an empty cell).
//
// Each table's columns are declared once, as a function
// `columns(row, col)` that calls `col(name, field)` for every column in
// order.  Writing renders the header and each row's cells from it; reading
// resolves every name to its header index once, then converts each cell
// by its field's type: a double as written, a std::size_t count only when
// integral, non-negative and at most 2^53 (the range where a double holds
// every integer), a bool flag only when exactly 0 or 1.  Every read
// failure throws std::runtime_error.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"
#include "util/csv.hpp"
#include "util/field_io.hpp"

namespace tegrec::sim {

/// One block read in place from `lines`: counted, width-checked rows.
class TableBlock {
 public:
  explicit TableBlock(util::LineReader& lines);

  std::size_t rows() const { return rows_; }
  /// Header index of `name`; throws when the table lacks the column.
  std::size_t column(std::string_view name) const;

  void read(std::size_t row, std::size_t col, double& out) const {
    out = cell(row, col);
  }
  void read(std::size_t row, std::size_t col, std::size_t& out) const;
  void read(std::size_t row, std::size_t col, bool& out) const;

 private:
  double cell(std::size_t row, std::size_t col) const {
    return cells_[row * header_.size() + col];
  }

  const util::LineReader& lines_;
  std::vector<std::string_view> header_;
  std::vector<double> cells_;
  std::size_t rows_ = 0;
};

/// "# table rows = N" and the header line of a `columns` table.
template <typename Row, typename Columns>
void append_table_head(std::string& out, std::size_t rows, Columns columns) {
  out += "# table rows = ";
  out += std::to_string(rows);
  out += '\n';
  Row probe{};
  bool first = true;
  columns(probe, [&](std::string_view name, const auto&) {
    if (!first) out += ',';
    first = false;
    out += name;
  });
  out += '\n';
}

/// One row of a `columns` table, '\n' included.
template <typename Row, typename Columns>
void append_table_row(std::string& out, const Row& row, Columns columns) {
  std::array<double, 16> cells{};
  std::size_t n = 0;
  columns(row, [&](std::string_view, const auto& field) {
    cells.at(n++) = static_cast<double>(field);
  });
  util::append_csv_row(out, std::span(cells.data(), n),
                       util::kCsvExactPrecision);
}

/// A whole `columns` table.
template <typename Row, typename Columns>
void append_table(std::string& out, const std::vector<Row>& rows,
                  Columns columns) {
  append_table_head<Row>(out, rows.size(), columns);
  for (const Row& row : rows) append_table_row(out, row, columns);
}

/// Reads what append_table wrote.  Columns are matched by name, so their
/// order in the header is free and extra columns are ignored.
template <typename Row, typename Columns>
std::vector<Row> read_table(util::LineReader& lines, Columns columns) {
  const TableBlock table(lines);
  std::vector<std::size_t> index;
  Row probe{};
  columns(probe, [&](std::string_view name, const auto&) {
    index.push_back(table.column(name));
  });
  std::vector<Row> rows(table.rows());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::size_t k = 0;
    columns(rows[r], [&](std::string_view, auto& field) {
      table.read(r, index[k++], field);
    });
  }
  return rows;
}

/// "<algorithm_prefix><algorithm>", the summary table and the head of the
/// step table: all of a run but its step rows, which append_step_row
/// renders (the checkpoint encoder keeps those rendered across calls).
void append_run_head(std::string& out, const SimulationResult& run,
                     std::string_view algorithm_prefix);
void append_step_row(std::string& out, const StepRecord& step);

/// A whole run: the head, then every step row.
void append_run(std::string& out, const SimulationResult& run,
                std::string_view algorithm_prefix);

/// Reads what append_run wrote.
SimulationResult read_run(util::LineReader& lines,
                          std::string_view algorithm_prefix);

}  // namespace tegrec::sim
