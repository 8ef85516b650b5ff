// Streaming reconfiguration server.
//
// Tracks one or more named TEG arrays concurrently: each array owns a
// telemetry source (sim/telemetry.hpp), a controller, and a SimStepper,
// and runs on its own thread; reconfiguration decisions and stream-order
// incidents are emitted as single-line JSON (JSONL) through one shared,
// mutex-serialised sink.  Per-step latency is measured around every
// SimStepper::step and reported per array.
//
// Durability: an array with a checkpoint path persists its full state —
// stepper snapshot AND its decision log so far — through the
// fingerprint-stamped codec (sim/checkpoint.hpp) every
// `checkpoint_every_steps` steps and once more on exit (including a stop
// requested by signal).  Only the snapshot is taken on the array's
// thread; encoding and the fsync'd write run on one writer thread per
// checkpointing array, one write at a time, and the loop waits only when
// the previous write has not finished by the next checkpoint.  Every
// checkpoint is written, in order, with the bytes a synchronous write
// would produce; the one on exit is written synchronously.  A kill -9 can
// therefore find the previous generation on disk, from which resume is
// just as exact.  On resume the restored log is handed to the caller
// *before* any new line is emitted, so a file-backed sink can be
// atomically rewritten to the exact checkpointed prefix and the
// concatenated log ends up identical to an uninterrupted run, no matter
// where the previous process died.  A checkpoint *write* failure degrades
// gracefully once the next checkpoint collects it: one warning,
// checkpointing disabled, streaming continues (availability over
// durability, matching the cache-dir policy); only the injected crash
// fault (stream.checkpoint.crash) aborts, because it models the process
// dying mid-write.  An array that fails for another reason while a write
// is in flight waits for it and warns about that write's failure, if any.
//
// The decision log deliberately contains only deterministic,
// stream-derived events (decisions, gaps, out-of-order drops) — no
// timestamps, no end-of-run marker — so the log of [run, die, resume,
// finish] is byte-identical to the log of one uninterrupted run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/telemetry.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/mutex.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace tegrec::sim {

/// Receives one complete JSONL line (no trailing newline) per call.
/// Called with the emitter's lock held — keep it fast and non-reentrant.
using LineSink = std::function<void(const std::string&)>;

/// Serialises all JSONL and warning output across the array threads.
class StreamEmitter {
 public:
  StreamEmitter(LineSink sink, util::WarnFn warn);

  /// Forwards one JSONL line to the sink (no-op on a null sink).
  void emit(const std::string& line);
  /// Forwards one human-readable warning (no-op on a null warn fn).
  void warn(const std::string& message);

 private:
  util::Mutex mutex_;
  LineSink sink_ TEGREC_GUARDED_BY(mutex_);
  util::WarnFn warn_ TEGREC_GUARDED_BY(mutex_);
};

/// One named array tracked by the server.
struct StreamArrayOptions {
  std::string name = "main";
  /// Scheme, cadence, grid, physics.  dt_s == 0 and/or num_modules == 0
  /// derive the grid from the telemetry stream itself (first two data
  /// lines / header) — except under `resume`, which needs the grid up
  /// front to validate the checkpoint stamp before any data flows.
  StreamConfig config;
  std::unique_ptr<ByteFeed> feed;
  GapPolicy gap_policy = GapPolicy::kHoldLast;
  /// Checkpoint file; empty disables checkpointing for this array.
  std::string checkpoint_path;
  /// Restore from checkpoint_path before streaming.  A missing file is a
  /// fresh start; a corrupt, truncated, or differently-configured one is
  /// a loud failure (the array errors out rather than silently restart).
  bool resume = false;
  /// Checkpoint every N consumed steps (0 = only on exit).  A periodic
  /// checkpoint is encoded and written in the background; when N steps
  /// take less time than one write, the loop waits for the previous one.
  std::size_t checkpoint_every_steps = 0;
  /// Called from the array's thread, before any new line is emitted, with
  /// the decision-log lines restored from the checkpoint — the hook for
  /// rewriting a file-backed sink to the checkpointed prefix.
  std::function<void(const std::vector<std::string>&)> on_resume;
  /// Fault injector for the checkpoint writes (site "stream.checkpoint").
  /// nullptr falls back to the process-wide injector.
  util::FaultInjector* faults = nullptr;
};

struct StreamServerOptions {
  /// Sleep between polls while the stream is idle.
  std::uint64_t poll_ms = 20;
  /// Warn (once per episode) when no sample arrives for this long;
  /// 0 never warns.
  std::uint64_t stall_timeout_ms = 5000;
  /// End an array's run after this much continuous idleness; 0 waits
  /// forever (until end-of-stream or a stop request).
  std::uint64_t idle_exit_ms = 0;
  /// Warning sink; defaults to util::warn_to_stderr.
  util::WarnFn warn;
};

/// Outcome of one array's run.
struct StreamArrayReport {
  std::string name;
  SimulationResult result;           ///< partial-run aggregate (simulator.hpp)
  std::size_t decisions = 0;         ///< decision lines emitted (this process)
  std::size_t gaps = 0;
  std::size_t out_of_order = 0;
  std::size_t stalls = 0;            ///< stall episodes observed
  std::size_t replayed = 0;          ///< replayed lines skipped after resume
  bool resumed = false;              ///< a checkpoint was restored
  bool checkpointing_disabled = false;  ///< write failure degraded the run
  util::RunningStats step_latency_ms;   ///< per-SimStepper::step wall latency
  std::string error;                 ///< non-empty: the run failed with this
};

/// The server.  add_array() all arrays first, then run() once; run()
/// spawns one thread per array, joins them all, and returns one report
/// per array in add order.  A per-array failure lands in that array's
/// report rather than aborting the siblings.
class StreamServer {
 public:
  explicit StreamServer(LineSink sink, StreamServerOptions options = {});

  void add_array(StreamArrayOptions array);

  /// Runs every array to completion.  `stop_flag`, when non-null, is
  /// polled between steps: setting it requests a graceful shutdown
  /// (final checkpoint included) — the signal-handler integration point.
  std::vector<StreamArrayReport> run(
      const std::atomic<bool>* stop_flag = nullptr);

 private:
  void run_array(StreamArrayOptions& array, StreamArrayReport& report,
                 const std::atomic<bool>* stop_flag);

  std::shared_ptr<StreamEmitter> emitter_;
  StreamServerOptions options_;
  std::vector<StreamArrayOptions> arrays_;
  bool ran_ = false;
};

}  // namespace tegrec::sim
