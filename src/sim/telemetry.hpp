// Live telemetry sources for streamed simulation.
//
// A streaming run is the batch simulator fed from the outside world
// instead of a file: some transport delivers the rows of a temperature
// CSV one at a time, and a SimStepper consumes them.  This header splits
// that into two layers:
//
//  - ByteFeed: "where do bytes come from" — a non-blocking poll over a
//    growing file (tail -f), an inherited pipe/stdin, a loopback TCP
//    listener, or an in-memory buffer for tests.  Feeds know nothing
//    about the line protocol.
//
//  - LineTelemetrySource: "what do the bytes mean" — the one reader of
//    the TemperatureTrace CSV dialect (load_trace_csv loads files through
//    it).  The first line must be the save_csv header
//    (`time_s,ambient_c,t0,...`); every later line is one sample, checked
//    for column count, finiteness and a uniform time grid — a malformed
//    line throws, it is never silently skipped.  Stream-order conditions
//    are surfaced instead: an out-of-order line is dropped and reported, a
//    gap (missing grid points) is rejected or filled by holding the last
//    sample, per GapPolicy, and reported either way.
//
// Emitted samples are grid-snapped and rebased to t = 0 (the first data
// line defines the epoch), so feeding the source's output to a SimStepper
// reproduces the batch run over the same rows bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/stepper.hpp"
#include "thermal/trace.hpp"

namespace tegrec::sim {

/// A non-blocking byte transport.  poll() never blocks: it appends
/// whatever is available now (possibly nothing) and reports the feed's
/// state.  Feeds are single-owner and not thread-safe; each streamed
/// array polls its own feed from its own thread.
class ByteFeed {
 public:
  enum class Status {
    kData,  ///< bytes were appended to the chunk
    kIdle,  ///< nothing available right now; more may come
    kEnd,   ///< the source is exhausted (EOF / peer closed); no more bytes
  };

  virtual ~ByteFeed() = default;

  /// Appends available bytes (a bounded chunk) to `chunk`, leaving what
  /// it already holds untouched (LineTelemetrySource polls straight into
  /// its line buffer).  Throws std::runtime_error on transport errors.
  virtual Status poll(std::string& chunk) = 0;

  /// Human-readable source description for logs ("tail:path", "stdin",
  /// "tcp:port").
  virtual std::string describe() const = 0;
};

/// Follows a growing file from a byte offset, tail -f style: reads
/// whatever lies beyond the last offset, reports kIdle when the file has
/// not grown (or does not exist yet).  Never reports kEnd — a tailed file
/// can always grow; end-of-stream policy (idle timeouts) belongs to the
/// caller.  Truncation (file shrinks below the offset) throws: the
/// history this source already emitted no longer exists.
class FileTailFeed final : public ByteFeed {
 public:
  explicit FileTailFeed(std::string path);
  Status poll(std::string& chunk) override;
  std::string describe() const override { return "tail:" + path_; }

 private:
  std::string path_;
  std::uint64_t offset_ = 0;
};

/// Reads an inherited pipe file descriptor (default: stdin) without
/// blocking.  kEnd on EOF (writer closed).  POSIX-only: the constructor
/// throws std::runtime_error on platforms without non-blocking fds.
class PipeFeed final : public ByteFeed {
 public:
  explicit PipeFeed(int fd = 0);
  ~PipeFeed() override;
  Status poll(std::string& chunk) override;
  std::string describe() const override;

 private:
  int fd_ = -1;
};

/// Line-protocol TCP listener on loopback: binds 127.0.0.1:`port`
/// (port 0 picks an ephemeral port — read it back with port()), accepts
/// one client at a time, and reports kEnd when that client disconnects.
/// Designed for `netcat <host> <port> < trace.csv`-style feeding.
/// POSIX-only: the constructor throws elsewhere.
class TcpLineFeed final : public ByteFeed {
 public:
  explicit TcpLineFeed(std::uint16_t port = 0);
  ~TcpLineFeed() override;
  Status poll(std::string& chunk) override;
  std::string describe() const override;

  /// The bound port (the ephemeral one when constructed with 0).
  std::uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  int client_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// In-memory feed for tests and adapters: push() appends bytes, close()
/// marks the end of the stream, describe() reports `name`.
class StringFeed final : public ByteFeed {
 public:
  explicit StringFeed(std::string name = "memory") : name_(std::move(name)) {}
  void push(const std::string& bytes) { buffer_ += bytes; }
  /// Takes the bytes over instead of copying them when nothing is left
  /// unread (a whole file pushed at once).
  void push(std::string&& bytes);
  void close() { closed_ = true; }
  Status poll(std::string& chunk) override;
  std::string describe() const override { return name_; }

 private:
  std::string name_;
  std::string buffer_;
  /// Bytes of buffer_ already handed out; poll() compacts them away only
  /// once they are half the buffer, so draining stays linear.
  std::size_t read_ = 0;
  bool closed_ = false;
};

/// What to do when the stream skips grid points (sensor dropout, lossy
/// transport).
enum class GapPolicy {
  kReject,    ///< throw — the operator wants no fabricated physics
  kHoldLast,  ///< fill the hole by holding the last sample, and report it
};

/// A stream-order condition the source observed and handled.
struct TelemetryIssue {
  enum class Kind {
    kGap,         ///< missing grid points (filled or rejected per policy)
    kOutOfOrder,  ///< line older than the stream position; dropped
  };
  Kind kind = Kind::kGap;
  std::string detail;  ///< human-readable specifics (times, counts)
};

/// One poll() outcome.
struct TelemetryEvent {
  enum class Kind {
    kSample,  ///< `sample` holds the next grid sample
    kIdle,    ///< no complete sample available right now
    kEnd,     ///< stream exhausted; no further samples will ever come
  };
  Kind kind = Kind::kIdle;
  TraceSample sample;                   ///< kSample only
  std::vector<TelemetryIssue> issues;   ///< conditions observed this poll
};

struct TelemetryOptions {
  /// Expected sample period; 0 derives it from the first two data lines
  /// (which also means the first sample is held back until the second
  /// arrives).  An explicit dt is the caller vouching for the grid:
  /// coarsely rounded timestamps are accepted as long as each stays
  /// nearest its own grid point.
  double dt_s = 0.0;
  /// Expected module count; 0 derives it from the header.  A header that
  /// contradicts an explicit value throws.
  std::size_t num_modules = 0;
  GapPolicy gap_policy = GapPolicy::kHoldLast;
  /// Raw-time origin of grid index 0.  Unset: the first data line defines
  /// the epoch (a fresh stream).  Set (typically 0.0, the time base
  /// save_csv writes): raw timestamps are mapped to absolute grid indices
  /// — required when resuming, where the stream may rejoin mid-grid.
  std::optional<double> epoch_s;
  /// Resume position: the first grid index the consumer still needs.
  /// Lines landing below it are replayed history — dropped silently and
  /// counted (replayed()), not reported as out-of-order.  Requires
  /// `epoch_s` to be meaningful (indices are absolute).
  std::size_t start_index = 0;
};

/// Reads one data row of the line protocol — `time,ambient,t0,...` —
/// into `time`, `ambient` and `temps`, in one pass over the line: each
/// cell is settled in place by util::read_settled_double, and a cell it
/// does not settle (padding, a '+' sign, hex, subnormal, non-finite, empty
/// or junk text) is read by util::parse_double, so every cell is accepted
/// or rejected exactly as parse_double would.  Throws std::runtime_error
/// "telemetry: row has X columns, expected Y" when the row does not hold
/// temps.size() + 2 cells (checked first, so it wins over a bad cell), and
/// "telemetry: unparseable cell: <parse_double's message>" otherwise.  The
/// messages carry no line suffix; LineTelemetrySource appends it.
void parse_telemetry_row(std::string_view line, double& time, double& ambient,
                         std::span<double> temps);

/// Incremental parser of the TemperatureTrace CSV line protocol over a
/// ByteFeed.  Single-owner, not thread-safe.  Malformed input (bad
/// header, wrong column count, non-finite cell, off-grid timestamp,
/// non-positive derived dt) throws std::runtime_error identifying the
/// offending line, and a bad cell's header name — corruption is loud,
/// only *ordering* conditions are events (TelemetryIssue).
class LineTelemetrySource {
 public:
  explicit LineTelemetrySource(std::unique_ptr<ByteFeed> feed,
                               TelemetryOptions options = {});

  /// Advances the stream: drains the feed, parses complete lines, and
  /// returns the next event.  At most one kSample per call; queued
  /// samples (e.g. gap fills) are delivered on subsequent calls before
  /// the feed is polled again.
  TelemetryEvent poll();

  /// Grid parameters; 0 until derived (grid_resolved() tells you when).
  double dt_s() const { return dt_s_; }
  std::size_t num_modules() const { return num_modules_; }
  bool grid_resolved() const { return dt_s_ > 0.0 && num_modules_ > 0; }

  /// Samples emitted so far (gap fills included; replay excluded).
  std::size_t samples_emitted() const { return emitted_; }
  /// Replayed lines dropped below start_index.
  std::size_t replayed() const { return replayed_; }

  std::string describe() const { return feed_->describe(); }

 private:
  /// Parses one line (no terminator), 1-based `line_no` for messages.
  void ingest(std::string_view line, std::size_t line_no);
  void process_on_grid(double time, std::vector<double> temps, double ambient,
                       std::size_t line_no);
  /// The " (line N of <feed>)" suffix; built only for an error or issue.
  std::string where(std::size_t line_no) const;
  /// " in column '<header name>'" naming the first cell of a row of the
  /// right width that does not read; empty otherwise.  Error path only.
  std::string bad_cell_column(std::string_view line) const;
  void enqueue_grid_sample(std::size_t index, std::size_t held,
                           std::vector<double> temps, double ambient);

  std::unique_ptr<ByteFeed> feed_;
  TelemetryOptions options_;
  std::string buffer_;           ///< bytes not yet forming a complete line
  std::string header_;           ///< the header line; empty until seen
  bool end_ = false;
  double dt_s_ = 0.0;
  std::size_t num_modules_ = 0;
  double epoch_s_ = 0.0;         ///< raw time of grid index 0
  bool have_epoch_ = false;
  /// First sample parked until the second line defines dt (derive mode).
  bool have_parked_ = false;
  double parked_time_ = 0.0;
  std::vector<double> parked_temps_;
  double parked_ambient_ = 0.0;
  std::size_t next_index_ = 0;   ///< grid index the next sample must land on
  bool have_last_ = false;       ///< a sample has been queued
  /// The last sample delivered: what a gap fill holds (GapPolicy::kHoldLast).
  std::vector<double> last_temps_;
  double last_ambient_ = 0.0;
  std::size_t emitted_ = 0;
  std::size_t replayed_ = 0;
  std::size_t lines_seen_ = 0;   ///< lines ingested so far
  /// A queued sample and the gap fills due before it.  The fills are only
  /// counted: poll() builds each one from last_temps_ as it delivers it, so
  /// memory does not grow with the length of a gap.
  struct Pending {
    std::size_t index = 0;       ///< grid index of `sample`
    std::size_t held = 0;        ///< fills still due before it
    TraceSample sample;
  };
  bool have_ready() const { return ready_head_ < ready_.size(); }
  /// Queued samples, delivered from ready_head_ on.  The feed is polled
  /// only once the queue is drained, and a drained queue is cleared in
  /// place, so a steady stream queues without allocating.
  std::vector<Pending> ready_;
  std::size_t ready_head_ = 0;
  std::vector<TelemetryIssue> issues_;
};

/// Loads a trace file through a LineTelemetrySource (GapPolicy::kReject)
/// over a StringFeed named `path`, so it reads exactly as `cat path |
/// tegrec_cli stream` does.  `dt_s` is TelemetryOptions::dt_s.  A malformed
/// line, a gap or an out-of-order row throws std::runtime_error naming
/// `path` and the line; so does a file that yields no sample (no data
/// rows, or a single row without an explicit dt).
thermal::TemperatureTrace load_trace_csv(const std::string& path,
                                         double dt_s = 0.0);

}  // namespace tegrec::sim
