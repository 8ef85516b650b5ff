// The library's one sanctioned wall-clock access point.
//
// PR 1 fixed a real nondeterminism bug: switching overhead was charged
// from *measured* wall-clock compute time, so simulated energies varied
// run to run.  The fix split the two roles — deterministic
// OverheadParams::compute_budget_s is what enters the physics, measured
// time only ever feeds runtime *statistics* (the stream server's step
// latency, predictor fit/predict timings, the Table I bench's runtime
// row) and never a result, checkpoint or cache artifact.  tegrec_lint's `determinism` rule now enforces that split
// mechanically: std::chrono clocks are banned in the simulation layers
// (src/core, src/teg, src/sim, src/thermal, src/power, src/predict), and
// runtime-stats measurement flows through this wrapper instead.  src/util
// is the rule's allowlist, so this header is the only door; anything a
// MonotonicTimer measures must stay out of simulated quantities.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

namespace tegrec::util {

/// Monotonic stopwatch for runtime statistics.  Starts at construction.
class MonotonicTimer {
 public:
  MonotonicTimer() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  /// Elapsed time since construction/restart [s].
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time since construction/restart [ms].
  double milliseconds() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Monotonic milliseconds since an arbitrary epoch — the spool's lease
/// clock.  Only ever compared against itself within one process (lease
/// staleness is judged by how long an observer has watched a heartbeat
/// stay unchanged on its *own* clock), so the epoch never needs to agree
/// across workers.  Simulation code must not let this feed simulated
/// quantities; SpoolOptions::now_ms lets tests substitute a fake clock.
inline std::uint64_t monotonic_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Count-up timeout on the monotonic millisecond clock — the streaming
/// server's poll/stall/idle timing primitive.  Like monotonic_now_ms it may
/// only ever gate *runtime* behaviour (when to warn about a stalled feed,
/// when to give up waiting); nothing it measures may feed simulated
/// quantities.  `now_fn` injects a fake clock in tests (nullptr = the real
/// monotonic_now_ms); a zero timeout never expires.
class Deadline {
 public:
  using NowFn = std::uint64_t (*)();

  explicit Deadline(std::uint64_t timeout_ms, NowFn now_fn = nullptr)
      : now_fn_(now_fn != nullptr ? now_fn : &monotonic_now_ms),
        timeout_ms_(timeout_ms),
        start_ms_(now_fn_()) {}

  /// Restarts the count-up (e.g. on stream activity).
  void reset() { start_ms_ = now_fn_(); }

  std::uint64_t timeout_ms() const { return timeout_ms_; }
  std::uint64_t elapsed_ms() const { return now_fn_() - start_ms_; }
  bool expired() const {
    return timeout_ms_ != 0 && elapsed_ms() >= timeout_ms_;
  }

 private:
  NowFn now_fn_;
  std::uint64_t timeout_ms_;
  std::uint64_t start_ms_;
};

/// Blocking sleep for polling loops (the streaming server between telemetry
/// polls).  Runtime-only like everything in this header: simulated time
/// advances by consumed samples, never by sleeping.
inline void sleep_for_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace tegrec::util
