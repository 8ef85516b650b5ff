// Reference reader of one telemetry data row: the loop LineTelemetrySource
// ran before its one-pass scan (sim::parse_telemetry_row).  It counts the
// commas first, so a wrong column count wins over a bad cell, then reads
// every cell through util::for_each_field and util::parse_double.  The
// messages are the scan's, without the " (line N of <feed>)" suffix.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/parse.hpp"

namespace tegrec::sim::oracle {

inline void parse_telemetry_row(std::string_view line, double& time,
                                double& ambient, std::span<double> temps) {
  const std::size_t cells =
      static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) + 1;
  if (cells != temps.size() + 2) {
    throw std::runtime_error("telemetry: row has " + std::to_string(cells) +
                             " columns, " + "expected " +
                             std::to_string(temps.size() + 2));
  }
  try {
    std::size_t column = 0;
    util::for_each_field(line, ',', [&](std::string_view cell) {
      const double value = util::parse_double(cell);
      if (column == 0) {
        time = value;
      } else if (column == 1) {
        ambient = value;
      } else {
        temps[column - 2] = value;
      }
      ++column;
    });
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("telemetry: unparseable cell: ") +
                             e.what());
  }
}

}  // namespace tegrec::sim::oracle
