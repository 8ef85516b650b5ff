#include "util/csv.hpp"

#include <cmath>
#include <cstdio>
#include <gtest/gtest.h>

namespace tegrec::util {
namespace {

CsvTable sample_table() {
  CsvTable t;
  t.header = {"time", "value"};
  t.rows = {{0.0, 1.5}, {0.5, 2.5}, {1.0, -3.25}};
  return t;
}

TEST(Csv, StringRoundTrip) {
  const CsvTable t = sample_table();
  const CsvTable back = csv_from_string(csv_to_string(t));
  ASSERT_EQ(back.header, t.header);
  ASSERT_EQ(back.num_rows(), t.num_rows());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    for (std::size_t c = 0; c < t.num_cols(); ++c) {
      EXPECT_DOUBLE_EQ(back.rows[r][c], t.rows[r][c]);
    }
  }
}

TEST(Csv, MalformedCellThrows) {
  EXPECT_THROW(csv_from_string("a,b\n1,xyz\n"), std::runtime_error);
}

TEST(Csv, RowLinesTrackSourceLinesAcrossBlanks) {
  // Blank separator lines shift data rows off their index; row_lines keeps
  // the true 1-based source line so error messages can point at the file.
  const CsvTable t = csv_from_string("a,b\n1,2\n\n3,4\n");
  ASSERT_EQ(t.num_rows(), 2u);
  ASSERT_EQ(t.row_lines.size(), 2u);
  EXPECT_EQ(t.row_lines[0], 2u);
  EXPECT_EQ(t.row_lines[1], 4u);
}

TEST(Csv, WidthMismatchNamesTheLine) {
  try {
    csv_from_string("a,b\n1,2\n3\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(Csv, ShortRowThrows) {
  EXPECT_THROW(csv_from_string("a,b\n1\n"), std::runtime_error);
}

TEST(Csv, EmptyLinesSkipped) {
  const CsvTable t = csv_from_string("a\n\n1\n\n2\n");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Csv, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/tegrec_csv_test.csv";
  write_csv(path, sample_table());
  const CsvTable back = read_csv(path);
  EXPECT_EQ(back.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(back.rows[2][1], -3.25);
  std::remove(path.c_str());
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW(read_csv("/nonexistent/dir/file.csv"), std::runtime_error);
}

TEST(Csv, EmptyCellsParseAsNaN) {
  // Unmeasured values are written as empty cells; they must read back as
  // NaN instead of tripping std::stod.
  const CsvTable t = csv_from_string("a,b,c\n1,,3\n");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(t.rows[0][0], 1.0);
  EXPECT_TRUE(std::isnan(t.rows[0][1]));
  EXPECT_DOUBLE_EQ(t.rows[0][2], 3.0);
}

TEST(Csv, TrailingEmptyCellKept) {
  // getline-based splitting used to drop a trailing empty cell, making
  // "1,2," a two-cell row that failed the width check.
  const CsvTable t = csv_from_string("a,b,c\n1,2,\n");
  ASSERT_EQ(t.num_rows(), 1u);
  ASSERT_EQ(t.rows[0].size(), 3u);
  EXPECT_TRUE(std::isnan(t.rows[0][2]));
}

TEST(Csv, NanRoundTripsAsEmptyCell) {
  CsvTable t;
  t.header = {"x", "y"};
  t.rows = {{std::nan(""), 2.0}, {3.0, std::nan("")}};
  const std::string text = csv_to_string(t);
  EXPECT_EQ(text, "x,y\n,2\n3,\n");
  const CsvTable back = csv_from_string(text);
  ASSERT_EQ(back.num_rows(), 2u);
  EXPECT_TRUE(std::isnan(back.rows[0][0]));
  EXPECT_DOUBLE_EQ(back.rows[0][1], 2.0);
  EXPECT_DOUBLE_EQ(back.rows[1][0], 3.0);
  EXPECT_TRUE(std::isnan(back.rows[1][1]));
}

TEST(Csv, RuntimeScalingBenchOutputRoundTrips) {
  // The repo's own bench output: rows above the legacy cap leave the
  // trailing legacy/speedup columns empty.  This exact shape used to
  // throw "non-numeric cell" (empty -> stod) or "row width differs"
  // (trailing empty cell dropped).
  const std::string bench_csv =
      "n,inor_s,dc_dp_s,new_search_s,new_peak_rss_mb,mat_search_s,"
      "mat_peak_rss_mb,legacy_dp_s,legacy_search_s,speedup\n"
      "64,0.000012,0.000210,0.000455,12.1,0.000601,12.5,"
      "0.001800,0.002400,5.3\n"
      "10000,0.001900,0.410000,4.800000,460.0,5.200000,880.0,,,\n";
  const CsvTable t = csv_from_string(bench_csv);
  ASSERT_EQ(t.num_rows(), 2u);
  ASSERT_EQ(t.num_cols(), 10u);
  EXPECT_EQ(t.header[9], "speedup");
  EXPECT_DOUBLE_EQ(t.rows[0][9], 5.3);
  EXPECT_TRUE(std::isnan(t.rows[1][7]));  // legacy_dp_s
  EXPECT_TRUE(std::isnan(t.rows[1][9]));
  // And the in-memory table round-trips through its own serialisation.
  const CsvTable back = csv_from_string(csv_to_string(t));
  ASSERT_EQ(back.num_rows(), 2u);
  EXPECT_TRUE(std::isnan(back.rows[1][9]));
  EXPECT_DOUBLE_EQ(back.rows[1][4], 460.0);
}

TEST(Csv, SingleColumnNanRowSurvivesRoundTrip) {
  // An all-empty single-column row would serialise as a blank line, which
  // the reader treats as a separator — so NaN is spelled out there.
  CsvTable t;
  t.header = {"x"};
  t.rows = {{1.0}, {std::nan("")}, {2.0}};
  const CsvTable back = csv_from_string(csv_to_string(t));
  ASSERT_EQ(back.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(back.rows[0][0], 1.0);
  EXPECT_TRUE(std::isnan(back.rows[1][0]));
  EXPECT_DOUBLE_EQ(back.rows[2][0], 2.0);
}

TEST(Csv, CrlfLinesHandled) {
  const CsvTable t = csv_from_string("a,b\r\n1,2\r\n");
  ASSERT_EQ(t.header.size(), 2u);
  EXPECT_EQ(t.header[1], "b");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(t.rows[0][1], 2.0);
}

TEST(Csv, PartiallyNumericCellThrows) {
  // std::stod("1.5x") parses the prefix and drops the rest; the reader
  // must reject the cell instead of silently truncating.
  EXPECT_THROW(csv_from_string("a\n1.5x\n"), std::runtime_error);
}

TEST(Csv, PrecisionPreserved) {
  CsvTable t;
  t.header = {"x"};
  t.rows = {{3.141592653589}};
  const CsvTable back = csv_from_string(csv_to_string(t));
  EXPECT_NEAR(back.rows[0][0], 3.141592653589, 1e-11);
}

}  // namespace
}  // namespace tegrec::util
