#include "util/csv.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <gtest/gtest.h>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "util/atomic_file.hpp"

namespace tegrec::util {
namespace {

CsvTable sample_table() {
  CsvTable t;
  t.header = {"time", "value"};
  t.rows = {{0.0, 1.5}, {0.5, 2.5}, {1.0, -3.25}};
  return t;
}

TEST(Csv, RendersHeaderAndRows) {
  EXPECT_EQ(csv_to_string(sample_table()),
            "time,value\n0,1.5\n0.5,2.5\n1,-3.25\n");
}

TEST(Csv, FileHoldsTheRenderedText) {
  const std::string path = ::testing::TempDir() + "/tegrec_csv_test.csv";
  write_csv(path, sample_table());
  EXPECT_EQ(read_file_if_exists(path), csv_to_string(sample_table()));
  std::remove(path.c_str());
}

TEST(Csv, UnwritablePathThrows) {
  EXPECT_THROW(write_csv("/nonexistent/dir/file.csv", sample_table()),
               std::runtime_error);
}

TEST(Csv, NanRendersAsEmptyCell) {
  CsvTable t;
  t.header = {"x", "y"};
  t.rows = {{std::nan(""), 2.0}, {3.0, std::nan("")}};
  EXPECT_EQ(csv_to_string(t), "x,y\n,2\n3,\n");
}

TEST(Csv, SingleColumnNanSpelledOut) {
  // An empty single-column row would render as a blank line, which line
  // readers skip as a separator — so NaN is spelled out there.
  CsvTable t;
  t.header = {"x"};
  t.rows = {{1.0}, {std::nan("")}, {2.0}};
  EXPECT_EQ(csv_to_string(t), "x\n1\nnan\n2\n");
}

TEST(Csv, AppendRowMatchesTableRendering) {
  std::string out;
  for (const auto& row : sample_table().rows) {
    append_csv_row(out, row, kCsvDefaultPrecision);
  }
  EXPECT_EQ("time,value\n" + out, csv_to_string(sample_table()));
}

TEST(CsvCell, ReadsBackEveryValueTheWriterEmits) {
  // Each value rendered at exact precision by the writer, then read back by
  // parse_csv_cell, keeps its bits — NaN aside, which has no bits to keep.
  const std::vector<double> values = {
      0.0,
      -0.0,
      1.5,
      -3.25,
      3.141592653589793,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      2.2250738585072009e-308,  // the largest subnormal
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  for (const double v : values) {
    std::string row;
    append_csv_row(row, std::vector<double>{v, 1.0}, kCsvExactPrecision);
    const std::string cell = row.substr(0, row.find(','));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parse_csv_cell(cell)),
              std::bit_cast<std::uint64_t>(v))
        << cell;
  }
  EXPECT_EQ(parse_csv_cell("4.9406564584124654e-324"),
            std::numeric_limits<double>::denorm_min());
}

TEST(CsvCell, EmptyAndNanReadAsNan) {
  EXPECT_TRUE(std::isnan(parse_csv_cell("")));
  EXPECT_TRUE(std::isnan(parse_csv_cell("nan")));
}

TEST(CsvCell, JunkAndPartialCellsThrow) {
  // std::stod("1.5x") parsed the prefix and dropped the rest; a cell must
  // be a number in full.
  for (const char* bad : {"xyz", "1.5x", "1,5", "1e400", "--1", "inf1"}) {
    EXPECT_THROW(parse_csv_cell(bad), std::runtime_error) << bad;
  }
}

}  // namespace
}  // namespace tegrec::util
