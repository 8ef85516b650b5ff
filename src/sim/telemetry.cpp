#include "sim/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "util/atomic_file.hpp"
#include "util/double_format.hpp"
#include "util/float_cmp.hpp"
#include "util/parse.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define TEGREC_HAVE_POSIX_FEEDS 1
#include <arpa/inet.h>
#include <cerrno>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define TEGREC_HAVE_POSIX_FEEDS 0
#endif

namespace tegrec::sim {

namespace {

/// Bound on bytes appended per ByteFeed::poll — keeps one poll's work (and
/// the per-step latency of whatever consumes it) bounded no matter how far
/// behind the reader is.
constexpr std::size_t kChunkBytes = 64 * 1024;

#if TEGREC_HAVE_POSIX_FEEDS
void set_nonblocking(int fd, const char* what) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error(std::string(what) +
                             ": cannot set O_NONBLOCK: " +
                             std::strerror(errno));
  }
}
#endif

/// A line as the protocol sees it: CRLF-terminated lines lose their '\r'.
std::string_view without_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

std::size_t count_cells(std::string_view line) {
  return static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) +
         1;
}

[[noreturn]] void throw_column_count(std::size_t cells, std::size_t expected) {
  throw std::runtime_error("telemetry: row has " + std::to_string(cells) +
                           " columns, " + "expected " +
                           std::to_string(expected));
}

}  // namespace

// ------------------------------------------------------------ FileTailFeed

FileTailFeed::FileTailFeed(std::string path) : path_(std::move(path)) {}

ByteFeed::Status FileTailFeed::poll(std::string& chunk) {
  // Re-open per poll: portable (no inotify), tolerant of the file not
  // existing yet, and cheap at telemetry rates (one open per poll period,
  // not per byte).
  std::ifstream in(path_, std::ios::binary);
  if (!in) return Status::kIdle;  // not created yet — keep waiting
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(in.tellg());
  if (size < offset_) {
    throw std::runtime_error("FileTailFeed: '" + path_ +
                             "' shrank below the tail offset (truncated or "
                             "replaced mid-stream)");
  }
  if (size == offset_) return Status::kIdle;
  const std::size_t want =
      static_cast<std::size_t>(std::min<std::uint64_t>(size - offset_,
                                                       kChunkBytes));
  // Read straight into the chunk's tail, then keep only what arrived.
  const std::size_t held = chunk.size();
  chunk.resize(held + want);
  in.seekg(static_cast<std::streamoff>(offset_));
  in.read(chunk.data() + held, static_cast<std::streamsize>(want));
  const auto got = static_cast<std::size_t>(in.gcount());
  chunk.resize(held + got);
  if (got == 0) return Status::kIdle;
  offset_ += got;
  return Status::kData;
}

// ---------------------------------------------------------------- PipeFeed

#if TEGREC_HAVE_POSIX_FEEDS

PipeFeed::PipeFeed(int fd) : fd_(fd) {
  if (fd < 0) throw std::runtime_error("PipeFeed: bad fd");
  set_nonblocking(fd_, "PipeFeed");
}

PipeFeed::~PipeFeed() {
  // fd 0 is borrowed from the process; anything else was handed to us.
  if (fd_ > 2) ::close(fd_);
}

ByteFeed::Status PipeFeed::poll(std::string& chunk) {
  char buf[kChunkBytes];
  const ::ssize_t got = ::read(fd_, buf, sizeof(buf));
  if (got > 0) {
    chunk.append(buf, static_cast<std::size_t>(got));
    return Status::kData;
  }
  if (got == 0) return Status::kEnd;  // writer closed
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
    return Status::kIdle;
  }
  throw std::runtime_error(std::string("PipeFeed: read failed: ") +
                           std::strerror(errno));
}

#else  // !TEGREC_HAVE_POSIX_FEEDS

PipeFeed::PipeFeed(int) {
  throw std::runtime_error("PipeFeed: not supported on this platform");
}
PipeFeed::~PipeFeed() = default;
ByteFeed::Status PipeFeed::poll(std::string&) { return Status::kEnd; }

#endif

std::string PipeFeed::describe() const {
  return fd_ == 0 ? "stdin" : "pipe:fd" + std::to_string(fd_);
}

// ------------------------------------------------------------- TcpLineFeed

#if TEGREC_HAVE_POSIX_FEEDS

TcpLineFeed::TcpLineFeed(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("TcpLineFeed: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 1) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("TcpLineFeed: cannot listen on 127.0.0.1:" +
                             std::to_string(port) + ": " + why);
  }
  set_nonblocking(listen_fd_, "TcpLineFeed");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("TcpLineFeed: getsockname: " + why);
  }
  port_ = ntohs(bound.sin_port);
}

TcpLineFeed::~TcpLineFeed() {
  if (client_fd_ >= 0) ::close(client_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

ByteFeed::Status TcpLineFeed::poll(std::string& chunk) {
  if (client_fd_ < 0) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return Status::kIdle;  // nobody connected yet
      }
      throw std::runtime_error(std::string("TcpLineFeed: accept: ") +
                               std::strerror(errno));
    }
    set_nonblocking(fd, "TcpLineFeed");
    client_fd_ = fd;
  }
  char buf[kChunkBytes];
  const ::ssize_t got = ::recv(client_fd_, buf, sizeof(buf), 0);
  if (got > 0) {
    chunk.append(buf, static_cast<std::size_t>(got));
    return Status::kData;
  }
  if (got == 0) {
    // Peer finished its transmission: the stream is complete.
    ::close(client_fd_);
    client_fd_ = -1;
    return Status::kEnd;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
    return Status::kIdle;
  }
  throw std::runtime_error(std::string("TcpLineFeed: recv: ") +
                           std::strerror(errno));
}

#else  // !TEGREC_HAVE_POSIX_FEEDS

TcpLineFeed::TcpLineFeed(std::uint16_t) {
  throw std::runtime_error("TcpLineFeed: not supported on this platform");
}
TcpLineFeed::~TcpLineFeed() = default;
ByteFeed::Status TcpLineFeed::poll(std::string&) { return Status::kEnd; }

#endif

std::string TcpLineFeed::describe() const {
  return "tcp:" + std::to_string(port_);
}

// -------------------------------------------------------------- StringFeed

void StringFeed::push(std::string&& bytes) {
  if (read_ == buffer_.size()) {
    buffer_ = std::move(bytes);
    read_ = 0;
  } else {
    buffer_ += bytes;
  }
}

ByteFeed::Status StringFeed::poll(std::string& chunk) {
  if (read_ == buffer_.size()) return closed_ ? Status::kEnd : Status::kIdle;
  const std::size_t take = std::min(buffer_.size() - read_, kChunkBytes);
  chunk.append(buffer_, read_, take);
  read_ += take;
  // Compacting only once the consumed head is half the buffer moves each
  // byte O(1) times, where erasing per poll moved the unread tail each time.
  if (2 * read_ >= buffer_.size()) {
    buffer_.erase(0, read_);
    read_ = 0;
  }
  return Status::kData;
}

// ------------------------------------------------------ parse_telemetry_row

void parse_telemetry_row(std::string_view line, double& time, double& ambient,
                         std::span<double> temps) {
  const std::size_t expected = temps.size() + 2;
  const char* cell = line.data();
  const char* const last = cell + line.size();
  for (std::size_t column = 0;; ++column) {
    // Too many cells: the column count wins, as it would over a bad cell.
    if (column == expected) throw_column_count(count_cells(line), expected);
    double value = 0.0;
    // from_chars stops at the comma, so a cell is settled when the number
    // it read stops exactly there (or at the end of the line).
    const char* end = util::read_settled_double(cell, last, value);
    if (end == nullptr || (end != last && *end != ',')) {
      end = std::find(cell, last, ',');
      try {
        value = util::parse_double(
            std::string_view(cell, static_cast<std::size_t>(end - cell)));
      } catch (const std::exception& e) {
        const std::size_t cells = count_cells(line);
        if (cells != expected) throw_column_count(cells, expected);
        throw std::runtime_error(
            std::string("telemetry: unparseable cell: ") + e.what());
      }
    }
    if (column == 0) {
      time = value;
    } else if (column == 1) {
      ambient = value;
    } else {
      temps[column - 2] = value;
    }
    if (end == last) {
      if (column + 1 != expected) throw_column_count(column + 1, expected);
      return;
    }
    cell = end + 1;
  }
}

// ----------------------------------------------------- LineTelemetrySource

LineTelemetrySource::LineTelemetrySource(std::unique_ptr<ByteFeed> feed,
                                         TelemetryOptions options)
    : feed_(std::move(feed)), options_(options) {
  if (!feed_) throw std::invalid_argument("LineTelemetrySource: null feed");
  if (!util::is_exactly_zero(options_.dt_s) &&
      (!std::isfinite(options_.dt_s) || options_.dt_s <= 0.0)) {
    throw std::invalid_argument("LineTelemetrySource: bad explicit dt");
  }
  if (options_.epoch_s && !std::isfinite(*options_.epoch_s)) {
    throw std::invalid_argument("LineTelemetrySource: non-finite epoch");
  }
  dt_s_ = options_.dt_s;
  num_modules_ = options_.num_modules;
  if (options_.epoch_s) {
    epoch_s_ = *options_.epoch_s;
    have_epoch_ = true;
  }
  next_index_ = options_.start_index;
}

void LineTelemetrySource::enqueue_grid_sample(std::size_t index,
                                              std::size_t held,
                                              std::vector<double> temps,
                                              double ambient) {
  // Emitted times are grid-snapped and rebased to t = 0, so the stream is
  // byte-for-byte the time base a generated TemperatureTrace has and the
  // stepper's grid check is exact.
  Pending& pending = ready_.emplace_back();
  pending.index = index;
  pending.held = held;
  pending.sample.time_s = static_cast<double>(index) * dt_s_;
  pending.sample.module_temps_c = std::move(temps);
  pending.sample.ambient_c = ambient;
  have_last_ = true;
  next_index_ = index + 1;
  emitted_ += held + 1;
}

std::string LineTelemetrySource::where(std::size_t line_no) const {
  return " (line " + std::to_string(line_no) + " of " + feed_->describe() +
         ")";
}

std::string LineTelemetrySource::bad_cell_column(std::string_view line) const {
  if (count_cells(line) != num_modules_ + 2) return {};
  // The row is as wide as the header: walk the two in step.
  std::string_view header = header_;
  for (;;) {
    const std::size_t cell = std::min(line.find(','), line.size());
    const std::size_t name = std::min(header.find(','), header.size());
    try {
      (void)util::parse_double(line.substr(0, cell));
    } catch (const std::invalid_argument&) {
      return " in column '" + std::string(header.substr(0, name)) + "'";
    }
    if (cell == line.size()) return {};
    line.remove_prefix(cell + 1);
    header.remove_prefix(name + 1);
  }
}

void LineTelemetrySource::ingest(std::string_view line, std::size_t line_no) {
  if (line.empty()) return;  // tolerate blank separator lines

  if (header_.empty()) {
    // At least three cells, the first two named time_s and ambient_c.
    if (!line.starts_with("time_s,ambient_c,")) {
      throw std::runtime_error(
          "telemetry: first line must be the trace CSV header "
          "'time_s,ambient_c,t0,...'" +
          where(line_no));
    }
    const std::size_t n = count_cells(line) - 2;
    if (num_modules_ != 0 && n != num_modules_) {
      throw std::runtime_error(
          "telemetry: header has " + std::to_string(n) +
          " module columns, expected " + std::to_string(num_modules_) +
          where(line_no));
    }
    num_modules_ = n;
    header_ = line;
    return;
  }

  // Cells parse in place, straight into the sample.  Every cell must be
  // non-empty (an empty cell is a truncated row) and finite, so every
  // value here is finite.
  double time = 0.0;
  double ambient = 0.0;
  std::vector<double> temps(num_modules_);
  try {
    parse_telemetry_row(line, time, ambient, temps);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(e.what() + bad_cell_column(line) +
                             where(line_no));
  }

  // Resolve dt before anything can be placed on the grid.  Derive mode
  // parks the first data line until the second defines the period — both
  // are then processed in arrival order.
  if (util::is_exactly_zero(dt_s_)) {
    if (!have_parked_) {
      have_parked_ = true;
      parked_time_ = time;
      parked_temps_ = std::move(temps);
      parked_ambient_ = ambient;
      return;
    }
    const double dt = time - parked_time_;
    if (!std::isfinite(dt) || dt <= 0.0) {
      throw std::runtime_error(
          "telemetry: cannot derive dt (second timestamp does not advance)" +
          where(line_no));
    }
    dt_s_ = dt;
    have_parked_ = false;
    process_on_grid(parked_time_, std::move(parked_temps_), parked_ambient_,
                    line_no);
    parked_temps_.clear();
  }
  process_on_grid(time, std::move(temps), ambient, line_no);
}

void LineTelemetrySource::process_on_grid(double time,
                                          std::vector<double> temps,
                                          double ambient,
                                          std::size_t line_no) {
  if (!have_epoch_) {
    // A fresh stream: the first data line defines grid index 0.
    epoch_s_ = time;
    have_epoch_ = true;
  }
  // Nearest grid point: derived grids only absorb writer rounding; an
  // explicit dt vouches for the grid, so any stamp nearest its own grid
  // point is accepted.
  const double rel = (time - epoch_s_) / dt_s_;
  const double k_real = std::round(rel);
  const double expected = epoch_s_ + k_real * dt_s_;
  const double tol = options_.dt_s > 0.0
                         ? 0.5 * dt_s_
                         : 1e-6 * std::max({1.0, dt_s_, std::abs(expected)});
  if (k_real < 0.0 || std::abs(time - expected) > tol) {
    throw std::runtime_error(
        "telemetry: timestamp " + std::to_string(time) +
        " is not on the grid (epoch " + std::to_string(epoch_s_) + ", dt " +
        std::to_string(dt_s_) + ")" + where(line_no));
  }
  // Beyond 2^53 grid steps the index is no longer exact, and past
  // SIZE_MAX the cast below would be undefined.
  if (k_real >= 0x1p53) {
    throw std::runtime_error(
        "telemetry: timestamp " + util::format_double(time) +
        " lies 2^53 or more grid steps past the epoch (epoch " +
        std::to_string(epoch_s_) + ", dt " + std::to_string(dt_s_) + ")" +
        where(line_no));
  }
  const auto k = static_cast<std::size_t>(k_real);

  if (k < options_.start_index) {
    // Expected replay of history the consumer already has (a resumed run
    // re-fed from the start of its trace): not an ordering problem.
    ++replayed_;
    return;
  }
  if (k < next_index_) {
    TelemetryIssue issue;
    issue.kind = TelemetryIssue::Kind::kOutOfOrder;
    issue.detail = "dropped out-of-order sample for t = " +
                   std::to_string(time) + ", stream is already at step " +
                   std::to_string(next_index_) + where(line_no);
    issues_.push_back(std::move(issue));
    return;
  }
  std::size_t held = 0;  // gap fills due before this sample
  if (k > next_index_) {
    const std::size_t missing = k - next_index_;
    if (options_.gap_policy == GapPolicy::kReject) {
      throw std::runtime_error(
          "telemetry: gap of " + std::to_string(missing) +
          " grid step(s) before t = " + std::to_string(time) +
          " (GapPolicy::kReject)" + where(line_no));
    }
    if (!have_last_) {
      // A gap with nothing to hold (stream rejoins beyond the resume
      // point): fabricating temperatures from nothing is never OK.
      throw std::runtime_error(
          "telemetry: stream rejoins at step " + std::to_string(k) +
          " but the run needs step " + std::to_string(next_index_) +
          " and there is no previous sample to hold" + where(line_no));
    }
    TelemetryIssue issue;
    issue.kind = TelemetryIssue::Kind::kGap;
    issue.detail = "filled " + std::to_string(missing) +
                   " missing grid step(s) before t = " + std::to_string(time) +
                   " by holding the last sample" + where(line_no);
    issues_.push_back(std::move(issue));
    held = missing;
  }
  enqueue_grid_sample(k, held, std::move(temps), ambient);
}

TelemetryEvent LineTelemetrySource::poll() {
  TelemetryEvent event;
  // Deliver queued samples (gap fills, burst arrivals) one per call before
  // touching the feed again.
  while (!have_ready() && !end_) {
    // The feed appends straight into the buffer; only the new bytes can
    // hold the next newline, and each complete line is parsed in place.
    const std::size_t scan = buffer_.size();
    const ByteFeed::Status status = feed_->poll(buffer_);
    std::size_t start = 0;
    for (std::size_t nl = buffer_.find('\n', scan); nl != std::string::npos;
         nl = buffer_.find('\n', start)) {
      ingest(without_cr(std::string_view(buffer_).substr(start, nl - start)),
             ++lines_seen_);
      start = nl + 1;
    }
    buffer_.erase(0, start);
    if (status == ByteFeed::Status::kEnd) {
      // A final line without a trailing newline still counts (a file's
      // last row, a generator killed mid-flush is caught by cell checks).
      if (!buffer_.empty()) {
        const std::string line = std::move(buffer_);
        buffer_.clear();
        ingest(without_cr(line), ++lines_seen_);
      }
      end_ = true;
    } else if (status == ByteFeed::Status::kIdle && !have_ready()) {
      event.kind = TelemetryEvent::Kind::kIdle;
      event.issues = std::move(issues_);
      issues_.clear();
      return event;
    }
  }
  if (have_ready()) {
    event.kind = TelemetryEvent::Kind::kSample;
    Pending& next = ready_[ready_head_];
    if (next.held > 0) {
      // A gap fill holds the sample delivered just before it.
      event.sample.time_s = static_cast<double>(next.index - next.held) * dt_s_;
      event.sample.module_temps_c = last_temps_;
      event.sample.ambient_c = last_ambient_;
      --next.held;
    } else {
      last_temps_ = next.sample.module_temps_c;
      last_ambient_ = next.sample.ambient_c;
      event.sample = std::move(next.sample);
      if (++ready_head_ == ready_.size()) {
        ready_.clear();
        ready_head_ = 0;
      }
    }
  } else {
    event.kind = TelemetryEvent::Kind::kEnd;
  }
  event.issues = std::move(issues_);
  issues_.clear();
  return event;
}

// ---------------------------------------------------------- load_trace_csv

thermal::TemperatureTrace load_trace_csv(const std::string& path,
                                         double dt_s) {
  std::optional<std::string> bytes = util::read_file_if_exists(path);
  if (!bytes) throw std::runtime_error("load_trace_csv: cannot open " + path);
  auto feed = std::make_unique<StringFeed>(path);
  feed->push(std::move(*bytes));
  feed->close();
  TelemetryOptions options;
  options.dt_s = dt_s;
  options.gap_policy = GapPolicy::kReject;
  LineTelemetrySource source(std::move(feed), options);
  std::optional<thermal::TemperatureTrace> trace;
  for (;;) {
    const TelemetryEvent event = source.poll();
    // kReject turns gaps into errors; the only issue left is a row older
    // than the stream position, which a file must not hold either.
    if (!event.issues.empty()) {
      throw std::runtime_error("telemetry: rows out of time order: " +
                               event.issues.front().detail);
    }
    // A closed StringFeed never idles: every poll is a sample or the end.
    if (event.kind != TelemetryEvent::Kind::kSample) break;
    if (!trace) trace.emplace(source.dt_s(), source.num_modules());
    trace->append(event.sample.module_temps_c, event.sample.ambient_c);
  }
  if (!trace) {
    throw std::runtime_error(
        "load_trace_csv: " + path +
        " yields no sample (no data rows, or a single row without an "
        "explicit dt)");
  }
  return std::move(*trace);
}

}  // namespace tegrec::sim
