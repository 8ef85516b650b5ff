// Async experiment service: the job-queue front end of the sim layer.
//
// Every study — scheme comparison, Monte-Carlo seed study, parameter
// sweep — is an ExperimentSpec; submit() enqueues it onto a bounded job
// queue drained by util::ThreadPool workers and returns a JobHandle with
// status()/wait()/poll()/cancel().  Three properties make one service
// safely shareable by many callers:
//
//  - Determinism: a job executes through the same direct engines the
//    blocking API used, so results are bit-identical to the direct calls
//    for any worker count.
//  - Coalescing: jobs that share a spec fingerprint while one is queued or
//    running attach to that execution instead of enqueueing a duplicate.
//  - Content-addressed caching: completed results are stored in an
//    in-memory LRU and (optionally) as on-disk artifacts keyed by
//    ExperimentSpec::fingerprint(), so re-submitting an identical study is
//    a lookup.  Cache hits additionally compare the spec's fingerprint
//    text, so a hash collision degrades to a miss, never a wrong result.
//
// The blocking entry points (run_standard_comparison, run_monte_carlo)
// are thin submit-and-wait wrappers over shared(), so every existing
// caller inherits the cache for free.  Sweeps have no wrapper: they are
// specs naming a registered parameter (`sweep.parameter`), so every job
// the service runs has a content address.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "sim/artifact_store.hpp"
#include "sim/spec.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace tegrec::sim {

struct ServiceOptions {
  /// Worker threads draining the job queue (0 = one per hardware thread).
  std::size_t num_workers = 0;
  /// Bounded queue capacity; submit() blocks (backpressure) when full.
  std::size_t queue_capacity = 256;
  /// In-memory result cache capacity in entries (LRU eviction; 0 disables).
  std::size_t memory_cache_entries = 64;
  /// Directory for on-disk artifacts, one `<fingerprint>.csv` per result
  /// (created on demand; empty disables the disk cache).  The disk cache
  /// is strictly best-effort: an unwritable directory or a disk that fills
  /// mid-run warns once and degrades to uncached execution — it never
  /// fails a submit.
  std::string cache_dir;
  /// Byte cap for the on-disk cache (LRU eviction via ArtifactStore;
  /// 0 = unbounded).
  std::uint64_t cache_max_bytes = 0;
  /// Fault injection for the disk-cache paths (nullptr = process-wide
  /// injector; see util/fault.hpp).
  util::FaultInjector* faults = nullptr;
  /// Sink for degradation warnings (defaults to stderr, warn-once).
  util::WarnFn warn;
};

enum class JobStatus { kQueued, kRunning, kDone, kFailed, kCancelled };

namespace detail {
struct Job;
}

/// Shared view of one submitted job.  Copies refer to the same job;
/// coalesced submissions of one spec hand out handles to one job (equal
/// id()), so cancel() cancels that shared execution for every holder.
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return job_ != nullptr; }
  JobStatus status() const;

  /// Blocks until the job is terminal.  Returns the result on kDone;
  /// rethrows the job's exception on kFailed; throws std::runtime_error on
  /// kCancelled.
  std::shared_ptr<const ExperimentResult> wait() const;

  /// Non-blocking: the result if the job is done, nullptr otherwise (a
  /// failed/cancelled job keeps returning nullptr; wait() has the error).
  std::shared_ptr<const ExperimentResult> poll() const;

  /// Cancels the job if it is still queued; returns whether this call won
  /// (a cancelled job never executes).  Running jobs are not interrupted.
  bool cancel() const;

  /// True once the job completed without executing (memory or disk hit).
  bool from_cache() const;

  /// Spec fingerprint (the cache and coalescing key).
  const std::string& fingerprint() const;

  /// Service-unique job id; coalesced handles share it.
  std::uint64_t id() const;

 private:
  friend class ExperimentService;
  explicit JobHandle(std::shared_ptr<detail::Job> job) : job_(std::move(job)) {}

  std::shared_ptr<detail::Job> job_;
};

class ExperimentService {
 public:
  /// Implementation state (queue, workers, caches); defined in service.cpp.
  /// Public so file-local helpers there can name it — it is never exposed.
  struct State;

  explicit ExperimentService(ServiceOptions options = {});
  /// Cancels everything still queued, finishes the jobs already running,
  /// and joins the workers.
  ~ExperimentService();

  ExperimentService(const ExperimentService&) = delete;
  ExperimentService& operator=(const ExperimentService&) = delete;

  /// Enqueues a spec.  Returns immediately with an already-completed handle
  /// on a cache hit; attaches to the in-flight execution on a fingerprint
  /// match; otherwise blocks only while the job queue is full.  Throws if a
  /// CSV trace source cannot be read (fingerprinting hashes the file).
  JobHandle submit(const ExperimentSpec& spec);

  // Counters (monotonic; for tests and operational introspection).
  std::size_t executions() const;   ///< jobs that actually simulated
  std::size_t cache_hits() const;   ///< memory + disk hits
  std::size_t disk_hits() const;    ///< subset of cache_hits from disk
  std::size_t coalesced() const;    ///< submissions attached to an in-flight job

  const ServiceOptions& options() const { return options_; }

  /// The on-disk artifact store behind the disk cache (disabled when
  /// cache_dir is empty).  Exposed for eviction/degradation introspection.
  const ArtifactStore& artifact_store() const;

  /// Process-wide service the blocking wrappers submit to: hardware-sized
  /// worker pool, in-memory cache, plus a disk cache when the
  /// TEGREC_CACHE_DIR environment variable names a directory
  /// (TEGREC_CACHE_MAX_BYTES caps its size, TEGREC_CACHE_ENTRIES the
  /// in-memory LRU).
  static ExperimentService& shared();

 private:
  void run_job(const std::shared_ptr<detail::Job>& job);
  void complete_job(const std::shared_ptr<detail::Job>& job,
                    std::shared_ptr<const ExperimentResult> result,
                    bool from_cache);

  ServiceOptions options_;
  std::unique_ptr<State> state_;
};

}  // namespace tegrec::sim
