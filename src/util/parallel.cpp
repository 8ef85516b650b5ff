#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

namespace tegrec::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t count = std::max<std::size_t>(1, num_threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    if (stopping_) throw std::runtime_error("ThreadPool::submit after shutdown");
    queue_.push(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::exception_ptr error;
  {
    UniqueLock lock(mutex_);
    while (!queue_.empty() || in_flight_ != 0) idle_.wait(lock.native());
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      UniqueLock lock(mutex_);
      while (!stopping_ && queue_.empty()) task_ready_.wait(lock.native());
      if (queue_.empty()) return;  // stopping_ and nothing left to do
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    // Release the task's captures and this thread's hold on its exception
    // before the task counts as finished: once wait_idle() returns, the
    // caller may destroy what the task captured or rethrow the exception.
    task = nullptr;
    {
      MutexLock lock(mutex_);
      if (error && !first_error_) first_error_ = std::move(error);
      error = nullptr;
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

std::size_t default_parallelism() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void parallel_for(std::size_t n, std::size_t num_threads,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t requested =
      num_threads == 0 ? default_parallelism() : num_threads;
  const std::size_t workers = std::min(requested, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  Mutex error_mutex;

  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        body(i);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  // The caller's thread participates alongside workers - 1 pool threads;
  // `drain` traps its own exceptions, so wait_idle() has nothing to rethrow.
  ThreadPool pool(workers - 1);
  for (std::size_t t = 0; t + 1 < workers; ++t) pool.submit(drain);
  drain();
  pool.wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace tegrec::util
