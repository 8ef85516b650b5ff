// LineTelemetrySource: the incremental CSV parser is strict line for line
// (malformed input throws, nothing is silently skipped) while surfacing
// stream-order conditions — gaps, out-of-order lines, stalls — as explicit
// events.  load_trace_csv reads trace files through it, so a file and the
// stream of its bytes are accepted or rejected alike.
#include "sim/telemetry.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace tegrec::sim {
namespace {

/// Builds a source over a StringFeed pre-loaded with `bytes`; the feed
/// pointer stays usable for incremental pushes.
std::pair<StringFeed*, std::unique_ptr<LineTelemetrySource>> make_source(
    const std::string& bytes, TelemetryOptions options = {}) {
  auto feed = std::make_unique<StringFeed>();
  feed->push(bytes);
  StringFeed* raw = feed.get();
  auto source = std::make_unique<LineTelemetrySource>(std::move(feed),
                                                      std::move(options));
  return {raw, std::move(source)};
}

const std::string kHeader = "time_s,ambient_c,t0,t1\n";

std::string row(double t, double ambient, double a, double b) {
  return std::to_string(t) + "," + std::to_string(ambient) + "," +
         std::to_string(a) + "," + std::to_string(b) + "\n";
}

/// Drains a closed source, returning every sample it emits.
std::vector<TraceSample> drain(LineTelemetrySource& source) {
  std::vector<TraceSample> samples;
  for (TelemetryEvent event = source.poll();
       event.kind != TelemetryEvent::Kind::kEnd; event = source.poll()) {
    if (event.kind == TelemetryEvent::Kind::kSample) {
      samples.push_back(std::move(event.sample));
    }
  }
  return samples;
}

/// The message of the runtime_error draining `bytes` throws ("" if none).
std::string error_of(const std::string& bytes, TelemetryOptions options = {}) {
  auto [feed, source] = make_source(bytes, std::move(options));
  feed->close();
  try {
    drain(*source);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Telemetry, ParsesGridAndSamplesFromScratch) {
  auto [feed, source] = make_source(kHeader + row(0.0, 25, 30, 31) +
                                    row(0.5, 25, 32, 33) +
                                    row(1.0, 25, 34, 35));
  feed->close();
  EXPECT_FALSE(source->grid_resolved());

  std::vector<TraceSample> samples;
  while (true) {
    const TelemetryEvent event = source->poll();
    if (event.kind == TelemetryEvent::Kind::kEnd) break;
    ASSERT_EQ(event.kind, TelemetryEvent::Kind::kSample);
    EXPECT_TRUE(event.issues.empty());
    samples.push_back(event.sample);
  }
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_TRUE(source->grid_resolved());
  EXPECT_EQ(source->dt_s(), 0.5);        // derived from the first two lines
  EXPECT_EQ(source->num_modules(), 2u);  // derived from the header
  EXPECT_EQ(samples[0].time_s, 0.0);
  EXPECT_EQ(samples[2].time_s, 1.0);
  EXPECT_EQ(samples[1].module_temps_c, (std::vector<double>{32.0, 33.0}));
  EXPECT_EQ(source->samples_emitted(), 3u);
}

TEST(Telemetry, SamplesArriveIncrementallyAcrossPartialLines) {
  auto [feed, source] = make_source(kHeader);
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kIdle);
  feed->push("0,25,30,");       // half a line
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kIdle);
  feed->push("31\n0.5,25,32,33\n");
  EXPECT_EQ(source->poll().kind,
            TelemetryEvent::Kind::kSample);  // dt resolved: parked line out
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kSample);
  // A final sample whose line never got its newline still counts at EOF.
  feed->push("1,25,34,35");
  feed->close();
  const TelemetryEvent last = source->poll();
  ASSERT_EQ(last.kind, TelemetryEvent::Kind::kSample);
  EXPECT_EQ(last.sample.time_s, 1.0);
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kEnd);
}

TEST(Telemetry, ExplicitGridChecksHeaderAgainstOptions) {
  TelemetryOptions options;
  options.dt_s = 0.5;
  options.num_modules = 2;
  auto [feed, source] = make_source(kHeader + row(0.0, 25, 30, 31), options);
  feed->close();
  // With dt explicit there is no parking: the first line flows through.
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kSample);

  TelemetryOptions wrong;
  wrong.num_modules = 3;  // header says 2
  auto [feed2, source2] = make_source(kHeader + row(0.0, 25, 30, 31), wrong);
  feed2->close();
  EXPECT_THROW(source2->poll(), std::runtime_error);
}

TEST(Telemetry, GapIsFilledByHoldingLastSample) {
  TelemetryOptions options;
  options.dt_s = 0.5;
  options.gap_policy = GapPolicy::kHoldLast;
  auto [feed, source] = make_source(kHeader + row(0.0, 25, 30, 31), options);
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kSample);  // t=0
  feed->push(row(2.0, 26, 38, 39));  // grid indices 1..3 never arrive
  feed->close();
  const TelemetryEvent filled = source->poll();
  ASSERT_EQ(filled.kind, TelemetryEvent::Kind::kSample);  // t=0.5, held
  ASSERT_EQ(filled.issues.size(), 1u);
  EXPECT_EQ(filled.issues[0].kind, TelemetryIssue::Kind::kGap);
  EXPECT_EQ(filled.sample.module_temps_c,
            (std::vector<double>{30.0, 31.0}));  // last sample held
  EXPECT_EQ(source->poll().sample.time_s, 1.0);  // second held fill
  EXPECT_EQ(source->poll().sample.time_s, 1.5);  // third held fill
  const TelemetryEvent real = source->poll();
  EXPECT_EQ(real.sample.time_s, 2.0);            // the line that arrived
  EXPECT_EQ(real.sample.module_temps_c, (std::vector<double>{38.0, 39.0}));
  EXPECT_EQ(source->samples_emitted(), 5u);      // fills count as emitted
}

// Gap fills are built as they are delivered, so two gaps that arrive in
// one chunk must each hold the sample just before them, not the newest.
TEST(Telemetry, GapsInOneChunkEachHoldTheSampleBeforeThem) {
  TelemetryOptions options;
  options.dt_s = 0.5;
  auto [feed, source] =
      make_source(kHeader + row(0.0, 25, 30, 31) + row(1.0, 26, 32, 33) +
                      row(2.0, 27, 34, 35),
                  options);
  feed->close();
  // (time, ambient, first module) of each delivered sample.
  const std::vector<std::tuple<double, double, double>> want = {
      {0.0, 25, 30}, {0.5, 25, 30}, {1.0, 26, 32}, {1.5, 26, 32},
      {2.0, 27, 34}};
  std::size_t issues = 0;
  for (const auto& [time, ambient, temp] : want) {
    const TelemetryEvent event = source->poll();
    ASSERT_EQ(event.kind, TelemetryEvent::Kind::kSample);
    issues += event.issues.size();
    EXPECT_EQ(event.sample.time_s, time);
    EXPECT_EQ(event.sample.ambient_c, ambient);
    EXPECT_EQ(event.sample.module_temps_c,
              (std::vector<double>{temp, temp + 1}));
  }
  EXPECT_EQ(issues, 2u);
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kEnd);
  EXPECT_EQ(source->samples_emitted(), 5u);
}

TEST(Telemetry, GapRejectPolicyThrows) {
  TelemetryOptions options;
  options.dt_s = 0.5;
  options.gap_policy = GapPolicy::kReject;
  auto [feed, source] = make_source(kHeader + row(0.0, 25, 30, 31), options);
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kSample);
  feed->push(row(1.5, 25, 32, 33));  // skips indices 1 and 2
  feed->close();
  EXPECT_THROW(source->poll(), std::runtime_error);
}

TEST(Telemetry, OutOfOrderLineIsDroppedAndReported) {
  TelemetryOptions options;
  options.dt_s = 0.5;
  auto [feed, source] = make_source(
      kHeader + row(0.0, 25, 30, 31) + row(0.5, 25, 32, 33), options);
  EXPECT_EQ(source->poll().sample.time_s, 0.0);
  EXPECT_EQ(source->poll().sample.time_s, 0.5);
  feed->push(row(0.0, 25, 90, 90));  // a stale duplicate from the transport
  feed->push(row(1.0, 25, 34, 35));
  feed->close();
  const TelemetryEvent event = source->poll();  // stale line folds into this
  ASSERT_EQ(event.kind, TelemetryEvent::Kind::kSample);
  EXPECT_EQ(event.sample.time_s, 1.0);
  EXPECT_EQ(event.sample.module_temps_c, (std::vector<double>{34.0, 35.0}));
  ASSERT_EQ(event.issues.size(), 1u);
  EXPECT_EQ(event.issues[0].kind, TelemetryIssue::Kind::kOutOfOrder);
  EXPECT_EQ(source->samples_emitted(), 3u);
}

TEST(Telemetry, MalformedLinesThrowNamingTheLine) {
  const auto expect_throw_on = [](const std::string& bytes) {
    auto [feed, source] = make_source(bytes);
    feed->close();
    EXPECT_THROW(
        {
          while (source->poll().kind != TelemetryEvent::Kind::kEnd) {
          }
        },
        std::runtime_error)
        << bytes;
  };
  expect_throw_on("wrong,header,t0,t1\n");                    // bad header
  expect_throw_on("time_s,ambient_c\n0,25\n");              // no modules
  expect_throw_on("time_s ,ambient_c,t0\n0,25,30\n");       // padded name
  expect_throw_on(kHeader + "0,25,30\n");                     // short row
  expect_throw_on(kHeader + "0,25,30,31,7\n");                // long row
  expect_throw_on(kHeader + "0,25,nan,31\n");                 // non-finite
  expect_throw_on(kHeader + "0,25,abc,31\n");                 // non-numeric
  expect_throw_on(kHeader + row(0, 25, 30, 31) +
                  row(0, 25, 30, 31));                        // dt == 0
  // A derived grid only absorbs writer rounding: 0.76 is nowhere near a
  // multiple of the derived dt = 0.5.
  expect_throw_on(kHeader + row(0, 25, 30, 31) + row(0.5, 25, 32, 33) +
                  row(0.76, 25, 34, 35));                     // off-grid
  // An explicit dt snaps any stamp to its nearest grid point, but a stamp
  // before the pinned epoch has no grid point to snap to.
  TelemetryOptions pinned;
  pinned.dt_s = 0.5;
  pinned.num_modules = 2;
  pinned.epoch_s = 0.0;
  auto [feed, source] =
      make_source(kHeader + row(-0.5, 25, 30, 31), pinned);  // pre-epoch
  feed->close();
  EXPECT_THROW(source->poll(), std::runtime_error);
}

// A timestamp 2^53 or more grid steps past the epoch is on the grid as
// far as doubles can tell, but its index cannot be a size_t: it must fail
// loudly, naming the line, rather than wrap into an out-of-order drop.
TEST(Telemetry, FarFutureTimestampIsRejected) {
  for (const char* stamp : {"1e19", "1e300"}) {
    TelemetryOptions options;
    options.dt_s = 0.5;
    options.gap_policy = GapPolicy::kReject;
    auto [feed, source] = make_source(kHeader + row(0.0, 25, 30, 31), options);
    EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kSample);
    feed->push(std::string(stamp) + ",25,30,31\n");
    feed->close();
    try {
      source->poll();
      ADD_FAILURE() << stamp << " was accepted";
    } catch (const std::runtime_error& e) {
      const std::string error = e.what();
      EXPECT_NE(error.find("2^53 or more grid steps past the epoch"),
                std::string::npos)
          << error;
      EXPECT_NE(error.find("(line 3 of memory)"), std::string::npos) << error;
    }
  }
  // Well inside the range, the same line is an ordinary gap.
  TelemetryOptions options;
  options.dt_s = 0.5;
  options.gap_policy = GapPolicy::kReject;
  const std::string error =
      error_of(kHeader + row(0.0, 25, 30, 31) + "1e7,25,30,31\n", options);
  EXPECT_NE(error.find("gap of 19999999 grid step(s)"), std::string::npos)
      << error;
}

// The resume contract: with an epoch pinned and a start index, replayed
// history is silently dropped (counted, not an incident) and the stream
// rejoins exactly where the restored stepper needs it.
TEST(Telemetry, ResumeSkipsReplayedHistorySilently) {
  TelemetryOptions options;
  options.dt_s = 0.5;
  options.num_modules = 2;
  options.epoch_s = 0.0;
  options.start_index = 2;
  auto [feed, source] = make_source(kHeader + row(0.0, 25, 30, 31) +
                                        row(0.5, 25, 32, 33) +
                                        row(1.0, 25, 34, 35) +
                                        row(1.5, 25, 36, 37),
                                    options);
  feed->close();
  const TelemetryEvent first = source->poll();
  ASSERT_EQ(first.kind, TelemetryEvent::Kind::kSample);
  EXPECT_TRUE(first.issues.empty());  // replay is not an incident
  EXPECT_EQ(first.sample.time_s, 1.0);
  EXPECT_EQ(source->poll().sample.time_s, 1.5);
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kEnd);
  EXPECT_EQ(source->replayed(), 2u);
  EXPECT_EQ(source->samples_emitted(), 2u);
}

// A stream that rejoins *after* the resume point has a leading gap with
// nothing to hold — that must be loud under either policy.
TEST(Telemetry, ResumeRejoiningPastStartIndexIsLoud) {
  TelemetryOptions options;
  options.dt_s = 0.5;
  options.num_modules = 2;
  options.epoch_s = 0.0;
  options.start_index = 2;
  auto [feed, source] =
      make_source(kHeader + row(2.0, 25, 34, 35), options);  // index 4 > 2
  feed->close();
  EXPECT_THROW(source->poll(), std::runtime_error);
}

TEST(Telemetry, BlankLinesAreTolerated) {
  auto [feed, source] = make_source(kHeader + "\n" + row(0.0, 25, 30, 31) +
                                    "\n" + row(0.5, 25, 32, 33));
  feed->close();
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kSample);
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kSample);
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kEnd);
}

// Lines are parsed in place from the receive buffer, so where the feed
// splits the bytes must not matter: one byte per poll reads the same
// samples, bit for bit, as the whole stream in one chunk.
TEST(Telemetry, BytePerPollMatchesOneChunk) {
  const std::string bytes = kHeader + "0,25.125,30.5,31.0625\r\n" +
                            row(0.5, 25, 32, 33) + "\n" +
                            "1.0, 24.75 ,1e1,3.3333333333333335\n" +
                            "1.5,25,34,35";  // no final newline
  auto [whole_feed, whole] = make_source(bytes);
  whole_feed->close();
  const std::vector<TraceSample> want = drain(*whole);
  ASSERT_EQ(want.size(), 4u);

  auto [feed, source] = make_source("");
  std::vector<TraceSample> got;
  for (const char byte : bytes) {
    feed->push(std::string(1, byte));
    const TelemetryEvent event = source->poll();
    ASSERT_NE(event.kind, TelemetryEvent::Kind::kEnd);
    if (event.kind == TelemetryEvent::Kind::kSample) {
      got.push_back(event.sample);
    }
  }
  feed->close();
  for (TraceSample& sample : drain(*source)) got.push_back(std::move(sample));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].time_s, want[i].time_s);
    EXPECT_EQ(got[i].ambient_c, want[i].ambient_c);
    EXPECT_EQ(got[i].module_temps_c, want[i].module_temps_c);
  }
  EXPECT_EQ(want[0].module_temps_c, (std::vector<double>{30.5, 31.0625}));
  EXPECT_EQ(want[2].ambient_c, 24.75);
  EXPECT_EQ(want[2].module_temps_c,
            (std::vector<double>{10.0, 3.3333333333333335}));
}

TEST(Telemetry, CrlfLinesParse) {
  auto [feed, source] =
      make_source("time_s,ambient_c,t0,t1\r\n0,25,30,31\r\n\r\n"
                  "0.5,25,32,33\r\n");  // a blank CRLF line is blank too
  feed->close();
  const std::vector<TraceSample> samples = drain(*source);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(source->num_modules(), 2u);
  EXPECT_EQ(samples[1].module_temps_c, (std::vector<double>{32.0, 33.0}));
}

TEST(Telemetry, WhitespacePaddedCellsAreAccepted) {
  auto [feed, source] =
      make_source(kHeader + "0, 25 ,30,31\n" + "0.5,\t25,32 ,  33\n");
  feed->close();
  const std::vector<TraceSample> samples = drain(*source);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].ambient_c, 25.0);
  EXPECT_EQ(samples[1].module_temps_c, (std::vector<double>{32.0, 33.0}));
}

TEST(Telemetry, EmptyCellsThrow) {
  // A trailing comma is an extra, empty column; an empty middle cell has
  // the right column count but nothing to read.
  EXPECT_NE(error_of(kHeader + "0,25,30,31,\n"), "");
  EXPECT_NE(error_of(kHeader + "0,25,,31\n"), "");
  EXPECT_NE(error_of(kHeader + "0,25,30,\n"), "");
  EXPECT_NE(error_of(kHeader + ",25,30,31\n"), "");
}

TEST(Telemetry, ErrorsNameTheOneBasedLine) {
  // Line 1 is the header, line 2 a blank separator, line 3 the bad row:
  // the suffix is built only when throwing, and still counts blank lines.
  const std::string error = error_of(kHeader + "\n" + "0,25,abc,31\n");
  EXPECT_NE(error.find("unparseable cell"), std::string::npos) << error;
  EXPECT_NE(error.find("(line 3 of memory)"), std::string::npos) << error;

  const std::string columns = error_of(kHeader + row(0, 25, 30, 31) + "\n" +
                                       "0.5,25,32\n");
  EXPECT_NE(columns.find("row has 3 columns, expected 4 (line 4 of memory)"),
            std::string::npos)
      << columns;
  // An unterminated last line is numbered too.
  const std::string last = error_of(kHeader + "\n\n" + "0,25,30,x");
  EXPECT_NE(last.find("(line 4 of memory)"), std::string::npos) << last;
}

TEST(Telemetry, IssuesNameTheirLine) {
  TelemetryOptions options;
  options.dt_s = 0.5;
  auto [feed, source] = make_source(kHeader + row(0.0, 25, 30, 31), options);
  EXPECT_EQ(source->poll().sample.time_s, 0.0);
  feed->push("\n" + row(1.0, 25, 32, 33));  // line 4 skips grid index 1
  feed->close();
  const TelemetryEvent filled = source->poll();
  ASSERT_EQ(filled.issues.size(), 1u);
  EXPECT_NE(filled.issues[0].detail.find("(line 4 of memory)"),
            std::string::npos)
      << filled.issues[0].detail;
}

TEST(Telemetry, BadCellErrorNamesItsHeaderColumn) {
  const std::string bad = error_of(kHeader + row(0, 25, 30, 31) + "0.5,25,,33\n");
  EXPECT_NE(bad.find("in column 't0' (line 3 of memory)"), std::string::npos)
      << bad;
  const std::string ambient = error_of(kHeader + "0,x,30,31\n");
  EXPECT_NE(ambient.find("in column 'ambient_c'"), std::string::npos)
      << ambient;
  // A wrong column count is the row's fault, not a cell's.
  const std::string count = error_of(kHeader + "0,25,30\n");
  EXPECT_EQ(count.find("in column"), std::string::npos) << count;
}

TEST(Telemetry, StringFeedReportsLifecycle) {
  StringFeed feed;
  std::string chunk;
  EXPECT_EQ(feed.poll(chunk), ByteFeed::Status::kIdle);
  feed.push("abc");
  EXPECT_EQ(feed.poll(chunk), ByteFeed::Status::kData);
  EXPECT_EQ(chunk, "abc");
  feed.close();
  EXPECT_EQ(feed.poll(chunk), ByteFeed::Status::kEnd);
}

// push() and poll() interleaved across the 64 KiB chunk bound and the
// feed's compaction of consumed bytes hand back exactly the bytes pushed.
TEST(Telemetry, StringFeedInterleavedPushAndPollKeepsEveryByte) {
  std::string pushed;
  std::string polled;
  StringFeed feed;
  const std::size_t sizes[] = {1, 100, 70000, 3, 200000, 65536, 7, 131073};
  std::size_t next = 0;
  for (std::size_t round = 0; round < 40; ++round) {
    const std::size_t size = sizes[round % std::size(sizes)];
    std::string bytes(size, '\0');
    for (char& c : bytes) c = static_cast<char>('!' + next++ % 91);
    feed.push(bytes);
    pushed += bytes;
    // Poll a varying number of times: some rounds leave a backlog, some
    // drain it, so compaction happens with and without unread bytes.
    for (std::size_t poll = 0; poll < round % 4; ++poll) {
      if (feed.poll(polled) == ByteFeed::Status::kIdle) break;
    }
  }
  feed.close();
  while (feed.poll(polled) == ByteFeed::Status::kData) {
  }
  EXPECT_EQ(feed.poll(polled), ByteFeed::Status::kEnd);
  EXPECT_EQ(polled.size(), pushed.size());
  EXPECT_TRUE(polled == pushed);
}

/// What reading a trace text gave: the samples and dt, or the message it
/// failed with.  A read that yields no sample fails too.
struct Reading {
  std::vector<TraceSample> samples;
  double dt_s = 0.0;
  std::string error;
};

/// The "N" of the " (line N of ...)" an error names; "" if none.
std::string line_named(const std::string& error) {
  const std::size_t at = error.find("(line ");
  if (at == std::string::npos) return "";
  return error.substr(at + 6, error.find(' ', at + 6) - (at + 6));
}

/// load_trace_csv over `text` written to `path`.
Reading read_as_file(const std::string& path, const std::string& text,
                     double dt_s) {
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  Reading reading;
  try {
    const thermal::TemperatureTrace trace = load_trace_csv(path, dt_s);
    reading.dt_s = trace.dt_s();
    for (std::size_t t = 0; t < trace.num_steps(); ++t) {
      TraceSample sample;
      sample.time_s = static_cast<double>(t) * trace.dt_s();
      sample.module_temps_c = trace.step_temperatures(t);
      sample.ambient_c = trace.ambient_c(t);
      reading.samples.push_back(std::move(sample));
    }
  } catch (const std::runtime_error& e) {
    reading.error = e.what();
  }
  std::remove(path.c_str());
  return reading;
}

/// A kReject stream fed `text` seven bytes per poll; an issue rejects.
Reading read_as_stream(const std::string& text, double dt_s) {
  auto owned = std::make_unique<StringFeed>();
  StringFeed* feed = owned.get();
  TelemetryOptions options;
  options.dt_s = dt_s;
  options.gap_policy = GapPolicy::kReject;
  LineTelemetrySource source(std::move(owned), options);
  Reading reading;
  try {
    for (std::size_t at = 0;; at += 7) {
      if (at < text.size()) {
        feed->push(text.substr(at, 7));
      } else {
        feed->close();
      }
      const TelemetryEvent event = source.poll();
      if (!event.issues.empty()) {
        reading.error = event.issues.front().detail;
        return reading;
      }
      if (event.kind == TelemetryEvent::Kind::kEnd) break;
      if (event.kind == TelemetryEvent::Kind::kSample) {
        reading.samples.push_back(event.sample);
      }
    }
  } catch (const std::runtime_error& e) {
    reading.error = e.what();
    return reading;
  }
  reading.dt_s = source.dt_s();
  if (reading.samples.empty()) reading.error = "no sample";
  return reading;
}

std::vector<std::uint64_t> bits_of(const Reading& reading) {
  std::vector<std::uint64_t> bits{std::bit_cast<std::uint64_t>(reading.dt_s)};
  for (const TraceSample& s : reading.samples) {
    bits.push_back(std::bit_cast<std::uint64_t>(s.time_s));
    bits.push_back(std::bit_cast<std::uint64_t>(s.ambient_c));
    for (const double t : s.module_temps_c) {
      bits.push_back(std::bit_cast<std::uint64_t>(t));
    }
  }
  return bits;
}

// One accept set for trace files and streams: for every input, the file
// load and a kReject stream over the same bytes both accept, to the same
// samples and dt bit for bit, or both reject, naming the same line.  The
// cases are the trace-file loader's own (TemperatureTraceLoadCsv), the
// inputs on which the retired batch decoder and the stream disagreed, and
// line-ending and separator variants.
TEST(TelemetryAcceptSet, FileLoadAndStreamAcceptTheSameInputs) {
  struct Case {
    const char* name;
    std::string text;
    double dt_s;
    bool accepted;
    const char* line;  ///< the line a rejection names ("" for none)
  };
  const std::string h1 = "time_s,ambient_c,t0\n";
  const std::string h2 = "time_s,ambient_c,t0,t1\n";
  const std::string regular = h1 + "0,25,50\n0.5,25,51\n1.0,25,52\n";
  const std::string rounded = h1 +
                              "0.000,25,50\n0.033,25,51\n0.067,25,52\n"
                              "0.100,25,53\n";
  const std::vector<Case> cases = {
      {"single row, derived dt", h2 + "0,25,50,40\n", 0.0, false, ""},
      {"single row, explicit dt", h2 + "0,25,50,40\n", 0.25, true, ""},
      {"header only", h1, 0.0, false, ""},
      {"empty file", "", 0.0, false, ""},
      {"irregular time base", h1 + "0,25,50\n0.5,25,51\n2.0,25,52\n", 0.0,
       false, "4"},
      {"explicit dt contradicts stamps", regular, 1.0, false, "4"},
      {"explicit dt matches stamps", regular, 0.5, true, ""},
      {"rounded 30 Hz stamps, derived dt", rounded, 0.0, false, "4"},
      {"rounded 30 Hz stamps, explicit dt", rounded, 1.0 / 30.0, true, ""},
      {"non-zero start", h1 + "10.0,25,50\n10.5,25,51\n11.0,25,52\n", 0.0,
       true, ""},
      {"truncated row",
       "time_s,ambient_c,t0,t1,t2\n0.0,24.8,81.2,79.9,76.4\n"
       "0.5,24.8,81.3,80.1,76.6\n1.0,24.9,81.5,,\n",
       0.0, false, "4"},
      {"short row", h2 + "0.0,25,50,40\n0.5,25,51\n", 0.0, false, "3"},
      {"blank ambient cell", h1 + "0.0,25,50\n0.5,,51\n", 0.0, false, "3"},
      {"epoch-second stamps with a hole",
       h1 + "1700000000,25,50\n1700000000.5,25,51\n1700000002,25,52\n",
       0.0, false, "4"},
      {"epoch-second stamps", h1 + "1700000000,25,50\n1700000000.5,25,51\n",
       0.0, true, ""},
      {"non-trace header", "t,amb,a\n0,25,50\n0.5,25,51\n", 0.0, false,
       "1"},
      {"duplicate row", h1 + "0,25,50\n0.5,25,51\n0.5,25,51\n1.0,25,52\n",
       0.0, false, "4"},
      {"vertical-tab padded cell", h1 + "0,25,50\v\n0.5,25,51\n", 0.0, true,
       ""},
      {"CRLF line endings",
       "time_s,ambient_c,t0\r\n0,25,50\r\n0.5,25,51\r\n", 0.0, true, ""},
      {"blank lines", h1 + "\n0,25,50\n\n\n0.5,25,51\n\n1.0,25,52", 0.0,
       true, ""},
  };
  const std::string path = ::testing::TempDir() + "/tegrec_accept_set.csv";
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Reading file = read_as_file(path, c.text, c.dt_s);
    const Reading stream = read_as_stream(c.text, c.dt_s);
    EXPECT_EQ(file.error.empty(), c.accepted) << file.error;
    EXPECT_EQ(stream.error.empty(), c.accepted) << stream.error;
    if (c.accepted) {
      EXPECT_FALSE(file.samples.empty());
      EXPECT_EQ(bits_of(file), bits_of(stream));
    } else {
      EXPECT_EQ(line_named(file.error), c.line) << file.error;
      EXPECT_EQ(line_named(stream.error), c.line) << stream.error;
      // Every file error names the file.
      EXPECT_NE(file.error.find(path), std::string::npos) << file.error;
    }
  }
}

TEST(TelemetryAcceptSet, MissingFileThrowsNamingIt) {
  try {
    (void)load_trace_csv("/nonexistent/dir/trace.csv");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/dir/trace.csv"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace tegrec::sim
