#include "sim/service.hpp"

#include <atomic>
#include <condition_variable>
#include <list>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "sim/artifact_store.hpp"
#include "sim/result_io.hpp"
#include "util/bounded_queue.hpp"
#include "util/env_snapshot.hpp"
#include "util/mutex.hpp"
#include "util/parallel.hpp"
#include "util/parse.hpp"
#include "util/thread_annotations.hpp"

namespace tegrec::sim {

namespace detail {

// The identity half of a job is const: it is fully determined before the
// job is published (queued or handed out), so the constructor is the only
// writer and no lock is needed.  Everything below `mutex` is guarded.
// Lock order where both are held: service registry mutex, then job mutex.
struct Job {
  Job(std::uint64_t job_id, ExperimentSpec job_spec,
      std::string job_fingerprint, std::string job_fingerprint_text)
      : id(job_id),
        spec(std::move(job_spec)),
        fingerprint(std::move(job_fingerprint)),
        fingerprint_text(std::move(job_fingerprint_text)) {}

  const std::uint64_t id;
  const ExperimentSpec spec;
  const std::string fingerprint;
  const std::string fingerprint_text;

  mutable util::Mutex mutex;
  mutable std::condition_variable done_cv;
  JobStatus status TEGREC_GUARDED_BY(mutex) = JobStatus::kQueued;
  std::shared_ptr<const ExperimentResult> result TEGREC_GUARDED_BY(mutex);
  std::exception_ptr error TEGREC_GUARDED_BY(mutex);
  bool from_cache TEGREC_GUARDED_BY(mutex) = false;
};

namespace {

bool is_terminal(JobStatus status) {
  return status == JobStatus::kDone || status == JobStatus::kFailed ||
         status == JobStatus::kCancelled;
}

}  // namespace

}  // namespace detail

// ------------------------------------------------------------- JobHandle

namespace {

detail::Job& deref(const std::shared_ptr<detail::Job>& job) {
  if (!job) throw std::logic_error("JobHandle: empty handle");
  return *job;
}

}  // namespace

JobStatus JobHandle::status() const {
  detail::Job& job = deref(job_);
  util::MutexLock lock(job.mutex);
  return job.status;
}

std::shared_ptr<const ExperimentResult> JobHandle::wait() const {
  detail::Job& job = deref(job_);
  util::UniqueLock lock(job.mutex);
  while (!detail::is_terminal(job.status)) job.done_cv.wait(lock.native());
  if (job.status == JobStatus::kDone) return job.result;
  if (job.status == JobStatus::kFailed) std::rethrow_exception(job.error);
  throw std::runtime_error("ExperimentService: job " +
                           std::to_string(job.id) + " was cancelled");
}

std::shared_ptr<const ExperimentResult> JobHandle::poll() const {
  detail::Job& job = deref(job_);
  util::MutexLock lock(job.mutex);
  return job.status == JobStatus::kDone ? job.result : nullptr;
}

bool JobHandle::cancel() const {
  detail::Job& job = deref(job_);
  util::MutexLock lock(job.mutex);
  if (job.status != JobStatus::kQueued) return false;
  job.status = JobStatus::kCancelled;
  job.done_cv.notify_all();
  return true;
}

bool JobHandle::from_cache() const {
  detail::Job& job = deref(job_);
  util::MutexLock lock(job.mutex);
  return job.from_cache;
}

const std::string& JobHandle::fingerprint() const {
  return deref(job_).fingerprint;
}

std::uint64_t JobHandle::id() const { return deref(job_).id; }

// ------------------------------------------------------------------ State

struct ExperimentService::State {
  explicit State(std::size_t queue_capacity) : queue(queue_capacity) {}

  /// Internally synchronized (its own mutex + condition variables).
  // tegrec-lint: allow(guarded-member) internally synchronized
  util::BoundedQueue<std::shared_ptr<detail::Job>> queue;
  /// Created by the service constructor before any worker runs, reset
  /// only by the destructor after the queue closed.
  // tegrec-lint: allow(guarded-member) immutable between ctor and dtor
  std::unique_ptr<util::ThreadPool> pool;
  /// Crash-safe bounded disk cache (default-constructed = disabled when
  /// cache_dir is empty; behind a pointer because the store owns a mutex).
  /// The store is internally synchronized; the pointer itself is set in
  /// the service constructor and never reseated while workers exist.
  // tegrec-lint: allow(guarded-member) immutable between ctor and dtor
  std::unique_ptr<ArtifactStore> store = std::make_unique<ArtifactStore>();

  util::Mutex registry_mutex;
  /// Queued/running jobs by fingerprint — the coalescing table.
  std::unordered_map<std::string, std::shared_ptr<detail::Job>> inflight
      TEGREC_GUARDED_BY(registry_mutex);

  struct CacheEntry {
    std::list<std::string>::iterator lru_it;
    std::string fingerprint_text;  ///< collision guard
    std::shared_ptr<const ExperimentResult> result;
  };
  /// Fingerprints, most recently used first.
  std::list<std::string> lru TEGREC_GUARDED_BY(registry_mutex);
  std::unordered_map<std::string, CacheEntry> cache
      TEGREC_GUARDED_BY(registry_mutex);

  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::size_t> executions{0};
  std::atomic<std::size_t> cache_hits{0};
  std::atomic<std::size_t> disk_hits{0};
  std::atomic<std::size_t> coalesced{0};
};

namespace {

// The annotation is the old "registry lock must be held" comment made
// machine-checked: callers must hold state.registry_mutex.
void insert_cache_locked(ExperimentService::State& state, std::size_t capacity,
                         const detail::Job& job,
                         const std::shared_ptr<const ExperimentResult>& result)
    TEGREC_REQUIRES(state.registry_mutex);

void erase_inflight(ExperimentService::State& state,
                    const std::shared_ptr<detail::Job>& job) {
  util::MutexLock lock(state.registry_mutex);
  const auto it = state.inflight.find(job->fingerprint);
  if (it != state.inflight.end() && it->second == job) state.inflight.erase(it);
}

void fail_job(ExperimentService::State& state,
              const std::shared_ptr<detail::Job>& job, std::exception_ptr error) {
  erase_inflight(state, job);
  util::MutexLock lock(job->mutex);
  if (job->status == JobStatus::kCancelled) return;  // cancel won the race
  job->error = std::move(error);
  job->status = JobStatus::kFailed;
  job->done_cv.notify_all();
}

std::shared_ptr<const ExperimentResult> load_disk(ArtifactStore& store,
                                                  const detail::Job& job) {
  const std::optional<std::string> text = store.get(job.fingerprint);
  if (!text.has_value()) return nullptr;
  auto decoded = decode_result(*text, job.fingerprint_text);
  if (!decoded) {
    // Collision is a plain miss, but a torn/corrupt artifact is removed so
    // the next run republishes clean bytes instead of re-parsing garbage.
    store.remove(job.fingerprint);
    return nullptr;
  }
  return std::make_shared<const ExperimentResult>(std::move(*decoded));
}

void store_disk(ArtifactStore& store, const detail::Job& job,
                const ExperimentResult& result) {
  // Publication goes through the atomic temp+fsync+rename door and LRU
  // eviction inside the store; failures warn once and degrade (the disk
  // cache is best-effort by contract).
  store.put(job.fingerprint, encode_result(result, job.fingerprint_text));
}

void insert_cache_locked(ExperimentService::State& state, std::size_t capacity,
                         const detail::Job& job,
                         const std::shared_ptr<const ExperimentResult>& result)
    TEGREC_REQUIRES(state.registry_mutex) {
  if (capacity == 0) return;
  const auto it = state.cache.find(job.fingerprint);
  if (it != state.cache.end()) {
    state.lru.splice(state.lru.begin(), state.lru, it->second.lru_it);
    it->second.fingerprint_text = job.fingerprint_text;
    it->second.result = result;
    return;
  }
  state.lru.push_front(job.fingerprint);
  state.cache.emplace(job.fingerprint,
                      ExperimentService::State::CacheEntry{
                          state.lru.begin(), job.fingerprint_text, result});
  while (state.cache.size() > capacity) {
    state.cache.erase(state.lru.back());
    state.lru.pop_back();
  }
}

}  // namespace

// ------------------------------------------------------ ExperimentService

ExperimentService::ExperimentService(ServiceOptions options)
    : options_(std::move(options)),
      state_(std::make_unique<State>(options_.queue_capacity)) {
  if (!options_.cache_dir.empty()) {
    ArtifactStoreOptions store_options;
    store_options.dir = options_.cache_dir;
    store_options.max_bytes = options_.cache_max_bytes;
    store_options.faults = options_.faults;
    store_options.warn = options_.warn;
    state_->store = std::make_unique<ArtifactStore>(std::move(store_options));
    // Crash debris from earlier runs (orphaned temps, an over-cap store
    // left by a killed eviction pass) is cleaned before first use.
    state_->store->maintenance();
  }
  const std::size_t workers = options_.num_workers == 0
                                  ? util::default_parallelism()
                                  : options_.num_workers;
  state_->pool = std::make_unique<util::ThreadPool>(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    // Each worker runs one drain loop for the service's whole lifetime;
    // pop() returns nullopt after close()+drain() in the destructor.
    state_->pool->submit([this] {
      while (auto job = state_->queue.pop()) run_job(*job);
    });
  }
}

ExperimentService::~ExperimentService() {
  state_->queue.close();
  for (const auto& job : state_->queue.drain()) {
    util::MutexLock lock(job->mutex);
    if (job->status == JobStatus::kQueued) {
      job->status = JobStatus::kCancelled;
      job->done_cv.notify_all();
    }
  }
  state_->pool.reset();  // joins workers; running jobs finish first
}

JobHandle ExperimentService::submit(const ExperimentSpec& spec) {
  // The job's identity is computed up front so detail::Job can be
  // constructed with const fields — immutable by type, not by promise.
  const std::uint64_t id =
      state_->next_id.fetch_add(1, std::memory_order_relaxed);
  ExperimentSpec job_spec = spec;
  if (job_spec.trace.kind == TraceSource::Kind::kCsvFile) {
    // Materialise CSV sources before fingerprinting (throws here, on the
    // submitter, if the file is unreadable).  Hashing the path's bytes
    // and re-reading the file at execution time would let an edit in
    // between store a result under the other content's fingerprint —
    // the one way a wrong result could enter the cache.  The in-memory
    // trace is both the content address and what executes.
    job_spec.trace.inline_trace = materialize_trace(job_spec.trace);
    job_spec.trace.kind = TraceSource::Kind::kInline;
    job_spec.trace.csv_path.clear();
  }
  std::string fingerprint_text = job_spec.fingerprint_text();
  std::string fingerprint =
      ExperimentSpec::fingerprint_of_text(fingerprint_text);
  auto job = std::make_shared<detail::Job>(id, std::move(job_spec),
                                           std::move(fingerprint),
                                           std::move(fingerprint_text));

  {
    util::MutexLock lock(state_->registry_mutex);
    const auto hit = state_->cache.find(job->fingerprint);
    if (hit != state_->cache.end() &&
        hit->second.fingerprint_text == job->fingerprint_text) {
      state_->lru.splice(state_->lru.begin(), state_->lru, hit->second.lru_it);
      state_->cache_hits.fetch_add(1, std::memory_order_relaxed);
      util::MutexLock job_lock(job->mutex);
      job->result = hit->second.result;
      job->from_cache = true;
      job->status = JobStatus::kDone;
      return JobHandle(job);
    }
    const auto in_it = state_->inflight.find(job->fingerprint);
    if (in_it != state_->inflight.end()) {
      const std::shared_ptr<detail::Job> existing = in_it->second;
      // Same text check as the cache paths: attaching on the hash alone
      // would let a fingerprint collision hand this submitter the other
      // spec's result.  A collider (or a cancelled job still parked in
      // the queue) must not swallow new submissions; claim the slot.
      // The status read gets its own scope (no mid-scope unlock): the
      // verdict cannot change once computed, because a queued job only
      // leaves kCancelled via this registry lock, which we still hold.
      bool attach = false;
      {
        util::MutexLock existing_lock(existing->mutex);
        attach = existing->status != JobStatus::kCancelled &&
                 existing->fingerprint_text == job->fingerprint_text;
      }
      if (attach) {
        state_->coalesced.fetch_add(1, std::memory_order_relaxed);
        return JobHandle(existing);
      }
      in_it->second = job;
    } else {
      state_->inflight.emplace(job->fingerprint, job);
    }
  }
  // Disk probe outside the registry lock (file IO must not stall other
  // submitters); the fingerprint is already claimed in `inflight`, so
  // concurrent duplicates coalesce onto this job while we read.
  if (!options_.cache_dir.empty()) {
    if (auto result = load_disk(*state_->store, *job)) {
      state_->cache_hits.fetch_add(1, std::memory_order_relaxed);
      state_->disk_hits.fetch_add(1, std::memory_order_relaxed);
      complete_job(job, std::move(result), /*from_cache=*/true);
      return JobHandle(job);
    }
  }

  if (!state_->queue.push(job)) {
    fail_job(*state_, job,
             std::make_exception_ptr(std::runtime_error(
                 "ExperimentService: submit after shutdown")));
  }
  return JobHandle(job);
}

void ExperimentService::run_job(const std::shared_ptr<detail::Job>& job) {
  bool cancelled = false;
  {
    util::MutexLock lock(job->mutex);
    if (job->status != JobStatus::kQueued) {
      cancelled = true;  // cancelled while queued: it must never execute
    } else {
      job->status = JobStatus::kRunning;
    }
  }
  if (cancelled) {
    // Drop its coalescing claim so an identical future submit re-runs.
    erase_inflight(*state_, job);
    return;
  }

  state_->executions.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const ExperimentResult> result;
  try {
    result =
        std::make_shared<const ExperimentResult>(run_experiment(job->spec));
  } catch (...) {
    fail_job(*state_, job, std::current_exception());
    return;
  }
  if (!options_.cache_dir.empty()) store_disk(*state_->store, *job, *result);
  complete_job(job, std::move(result), /*from_cache=*/false);
}

void ExperimentService::complete_job(
    const std::shared_ptr<detail::Job>& job,
    std::shared_ptr<const ExperimentResult> result, bool from_cache) {
  {
    util::MutexLock lock(state_->registry_mutex);
    insert_cache_locked(*state_, options_.memory_cache_entries, *job, result);
    const auto it = state_->inflight.find(job->fingerprint);
    if (it != state_->inflight.end() && it->second == job) {
      state_->inflight.erase(it);
    }
  }
  util::MutexLock lock(job->mutex);
  // A coalesced holder may have cancelled the job while the disk probe ran
  // (the only completion path reachable from kQueued); its waiters were
  // already told "cancelled", so the status must not flip to done under
  // them.  The result stays cached above for future submissions.
  if (job->status == JobStatus::kCancelled) return;
  job->result = std::move(result);
  job->from_cache = from_cache;
  job->status = JobStatus::kDone;
  job->done_cv.notify_all();
}

std::size_t ExperimentService::executions() const {
  return state_->executions.load(std::memory_order_relaxed);
}
std::size_t ExperimentService::cache_hits() const {
  return state_->cache_hits.load(std::memory_order_relaxed);
}
std::size_t ExperimentService::disk_hits() const {
  return state_->disk_hits.load(std::memory_order_relaxed);
}
std::size_t ExperimentService::coalesced() const {
  return state_->coalesced.load(std::memory_order_relaxed);
}

const ArtifactStore& ExperimentService::artifact_store() const {
  return *state_->store;
}

ExperimentService& ExperimentService::shared() {
  static ExperimentService service([] {
    ServiceOptions options;
    // Configuration comes from the one-shot environment snapshot
    // (util/env_snapshot.hpp): no getenv happens after threads exist.
    if (const auto dir = util::env_snapshot("TEGREC_CACHE_DIR")) {
      options.cache_dir = *dir;
    }
    // Cached comparison results keep their per-step records, so a long-
    // running process iterating distinct configs retains up to this many
    // full results; TEGREC_CACHE_ENTRIES trims (or 0 disables) the LRU
    // when that footprint matters more than hit rate.
    if (const auto entries = util::env_snapshot("TEGREC_CACHE_ENTRIES")) {
      try {
        options.memory_cache_entries =
            static_cast<std::size_t>(util::parse_u64(*entries));
      } catch (const std::exception&) {
        // an unparseable override keeps the default
      }
    }
    if (const auto max_bytes = util::env_snapshot("TEGREC_CACHE_MAX_BYTES")) {
      try {
        options.cache_max_bytes = util::parse_u64(*max_bytes);
      } catch (const std::exception&) {
        // an unparseable cap keeps the cache unbounded
      }
    }
    return options;
  }());
  return service;
}

}  // namespace tegrec::sim
