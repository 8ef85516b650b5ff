#include "util/atomic_file.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#define TEGREC_POSIX_IO 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace tegrec::util {

namespace fs = std::filesystem;

namespace {

std::string make_temp_path(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
#ifdef TEGREC_POSIX_IO
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return path + ".tmp-" + std::to_string(pid) + "-" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

#ifdef TEGREC_POSIX_IO

/// Writes `content` to a fresh file at `temp_path`, fsyncs it, and closes.
/// Returns false on any failure (the temp file may be left behind; the
/// caller removes it).
bool write_and_sync(const std::string& temp_path, const std::string& content) {
  const int fd = ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const char* data = content.data();
  std::size_t remaining = content.size();
  bool ok = true;
  while (remaining > 0) {
    const ::ssize_t n = ::write(fd, data, remaining);
    if (n < 0) {
      ok = false;
      break;
    }
    data += n;
    remaining -= static_cast<std::size_t>(n);
  }
  if (ok && ::fsync(fd) != 0) ok = false;
  if (::close(fd) != 0) ok = false;
  return ok;
}

/// fsyncs the directory containing `path` so the rename itself is durable.
/// Best-effort: some filesystems reject O_DIRECTORY fsync.
void sync_parent_dir(const std::string& path) {
  const fs::path parent = fs::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

#else

bool write_and_sync(const std::string& temp_path, const std::string& content) {
  std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  out.flush();
  return static_cast<bool>(out);
}

void sync_parent_dir(const std::string&) {}

#endif

void remove_quietly(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

}  // namespace

std::uint64_t backoff_delay_ms(const RetryPolicy& policy, std::size_t attempt) {
  std::uint64_t delay = policy.initial_backoff_ms;
  for (std::size_t i = 0; i < attempt; ++i) {
    if (delay >= policy.max_backoff_ms / 2) return policy.max_backoff_ms;
    delay *= 2;
  }
  return delay < policy.max_backoff_ms ? delay : policy.max_backoff_ms;
}

void atomic_write_file(const std::string& path, const std::string& content,
                       const AtomicWriteOptions& options) {
  FaultInjector* faults = options.faults;
  if (faults == nullptr) faults = &process_faults();
  const bool inject = !options.fault_site.empty();

  std::string last_error = "no attempts made";
  const std::size_t attempts =
      options.retry.max_attempts > 0 ? options.retry.max_attempts : 1;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          backoff_delay_ms(options.retry, attempt - 1)));
    }

    if (inject && faults->should_fire(options.fault_site + ".write_fail")) {
      last_error = "injected write failure";
      continue;
    }

    const std::string temp_path = make_temp_path(path);
    const bool torn =
        inject && faults->should_fire(options.fault_site + ".torn");
    const std::string& payload = content;
    const std::string torn_payload =
        torn ? content.substr(0, content.size() / 2) : std::string();

    if (!write_and_sync(temp_path, torn ? torn_payload : payload)) {
      remove_quietly(temp_path);
      last_error = "failed to write temp file " + temp_path;
      continue;
    }

    if (inject && faults->should_fire(options.fault_site + ".crash")) {
      // Simulated death between write and rename: the durable temp file is
      // abandoned exactly as a real crash would leave it.
      throw AtomicWriteCrash("injected crash before rename of " + temp_path +
                             " to " + path);
    }

    std::error_code ec;
    fs::rename(temp_path, path, ec);
    if (ec) {
      remove_quietly(temp_path);
      last_error = "rename to " + path + " failed: " + ec.message();
      continue;
    }
    sync_parent_dir(path);
    return;
  }
  throw std::runtime_error("atomic_write_file(" + path + "): giving up after " +
                           std::to_string(attempts) +
                           " attempts: " + last_error);
}

bool rename_file(const std::string& from, const std::string& to) noexcept {
  std::error_code ec;
  fs::rename(from, to, ec);
  return !ec;
}

std::optional<std::string> read_file_if_exists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  // One read of the size the file has now: reading character by character
  // took three to five times as long on multi-megabyte trace files.
  std::string content;
  std::error_code ec;
  const std::uintmax_t size =
      fs::is_regular_file(path, ec) ? fs::file_size(path, ec) : 0;
  if (!ec && size > 0) {
    content.resize(static_cast<std::size_t>(size));
    in.read(content.data(), static_cast<std::streamsize>(size));
    content.resize(static_cast<std::size_t>(in.gcount()));
  }
  // Whatever the size did not cover: bytes appended since, or a file with
  // no size to ask for (a pipe).
  if (in) {
    content.append(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  if (in.bad()) return std::nullopt;
  return content;
}

bool create_file_exclusive(const std::string& path,
                           const std::string& content) {
#ifdef TEGREC_POSIX_IO
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) return false;
  const char* data = content.data();
  std::size_t remaining = content.size();
  while (remaining > 0) {
    const ::ssize_t n = ::write(fd, data, remaining);
    if (n < 0) break;
    data += n;
    remaining -= static_cast<std::size_t>(n);
  }
  ::close(fd);
  return true;
#else
  // Non-POSIX fallback: racy create-if-absent, adequate for single-process
  // use on platforms without O_EXCL semantics exposed.
  if (fs::exists(path)) return false;
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(out);
#endif
}

bool touch_file(const std::string& path) noexcept {
#ifdef TEGREC_POSIX_IO
  return ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0) == 0;
#else
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  return !ec;
#endif
}

std::size_t remove_stale_temp_files(const std::string& dir,
                                    std::uint64_t max_age_ms) noexcept {
  std::size_t removed = 0;
  std::error_code ec;
  const auto now = fs::file_time_type::clock::now();
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp-") == std::string::npos) continue;
    std::error_code entry_ec;
    const auto mtime = fs::last_write_time(entry.path(), entry_ec);
    if (entry_ec) continue;
    const auto age =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - mtime);
    if (age.count() < 0 ||
        static_cast<std::uint64_t>(age.count()) < max_age_ms) {
      continue;
    }
    std::error_code remove_ec;
    if (fs::remove(entry.path(), remove_ec)) ++removed;
  }
  return removed;
}

}  // namespace tegrec::util
