#include "sim/stream_server.hpp"

#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/runtime_clock.hpp"

namespace tegrec::sim {

namespace {

util::json::Value issue_line(const std::string& array,
                             const TelemetryIssue& issue) {
  util::json::Object obj;
  obj.emplace_back("array", array);
  obj.emplace_back("event", issue.kind == TelemetryIssue::Kind::kGap
                                ? "gap"
                                : "out_of_order");
  obj.emplace_back("detail", issue.detail);
  return util::json::Value(std::move(obj));
}

util::json::Value decision_line(const std::string& array,
                                const StepRecord& rec,
                                const std::vector<std::size_t>& group_starts) {
  util::json::Object obj;
  obj.emplace_back("array", array);
  obj.emplace_back("event", "decision");
  obj.emplace_back("time_s", rec.time_s);
  util::json::Array groups;
  groups.reserve(group_starts.size());
  for (std::size_t s : group_starts) groups.emplace_back(s);
  obj.emplace_back("group_starts", std::move(groups));
  obj.emplace_back("switch_actuations", rec.switch_actuations);
  obj.emplace_back("gross_power_w", rec.gross_power_w);
  obj.emplace_back("net_power_w", rec.net_power_w);
  return util::json::Value(std::move(obj));
}

/// Publishes one array's checkpoints off the array thread.  The caller
/// takes each snapshot (the stepper is not thread-safe) and hands it over
/// with the log lines emitted since the previous checkpoint; one writer
/// thread encodes it and writes it through util::atomic_write_file.  At
/// most one write is in flight: each call first waits for the previous
/// one and rethrows its failure, so every checkpoint is written in order
/// with the bytes a synchronous writer would produce.  The other members
/// belong to the writer thread while a write is in flight and to the
/// caller otherwise; the pool's submit() and wait_idle() order the two.
class CheckpointPublisher {
 public:
  CheckpointPublisher(std::string path, util::FaultInjector* faults)
      : path_(std::move(path)) {
    options_.fault_site = "stream.checkpoint";
    options_.faults = faults;
  }
  CheckpointPublisher(const CheckpointPublisher&) = delete;
  CheckpointPublisher& operator=(const CheckpointPublisher&) = delete;

  /// The configuration stamp every checkpoint carries.
  void set_stamp(std::string stamp) { stamp_ = std::move(stamp); }

  /// Seeds the log with the lines a resume restored.
  void restore_log(std::vector<std::string> lines) { log_ = std::move(lines); }

  /// Waits for the previous write and rethrows its failure (then nothing
  /// new is written).  Otherwise moves `fresh` into the log and writes
  /// `state`: on the writer thread when `in_background`, else here.
  /// `fresh` comes back empty.
  void publish(StepperState state, std::vector<std::string>& fresh,
               bool in_background) {
    if (writer_) writer_->wait_idle();
    handed_.swap(fresh);
    if (!in_background) {
      write(state);
      return;
    }
    if (!writer_) writer_.emplace(1);
    // The task owns the snapshot, so it is freed as soon as it is written.
    writer_->submit([this, state = std::move(state)] { write(state); });
  }

  /// Waits for the write in flight and returns what it threw, if anything,
  /// for an exit path that is already failing for another reason.
  std::optional<std::string> settle() {
    if (!writer_) return std::nullopt;
    try {
      writer_->wait_idle();
    } catch (const std::exception& e) {
      return e.what();
    }
    return std::nullopt;
  }

 private:
  /// Appends the handed lines to the log (leaving `handed_` empty with its
  /// capacity, for the next swap), then encodes and publishes.
  void write(const StepperState& state) {
    for (std::string& line : handed_) log_.push_back(std::move(line));
    handed_.clear();
    util::atomic_write_file(path_, encoder_.encode(state, stamp_, log_),
                            options_);
  }

  std::string path_;
  util::AtomicWriteOptions options_;
  std::string stamp_;
  // Renders only the step rows and log lines new since the last checkpoint.
  CheckpointEncoder encoder_;
  std::vector<std::string> log_;     ///< full decision log incl. restored
  std::vector<std::string> handed_;  ///< new lines for the write in flight
  // Started at the first background write; last, so that it is destroyed
  // first: the destructor finishes the write in flight and joins the
  // thread on every exit path.
  std::optional<util::ThreadPool> writer_;
};

}  // namespace

// ------------------------------------------------------------ StreamEmitter

StreamEmitter::StreamEmitter(LineSink sink, util::WarnFn warn)
    : sink_(std::move(sink)), warn_(std::move(warn)) {}

void StreamEmitter::emit(const std::string& line) {
  util::MutexLock lock(mutex_);
  if (sink_) sink_(line);
}

void StreamEmitter::warn(const std::string& message) {
  util::MutexLock lock(mutex_);
  if (warn_) warn_(message);
}

// ------------------------------------------------------------- StreamServer

StreamServer::StreamServer(LineSink sink, StreamServerOptions options)
    : emitter_(std::make_shared<StreamEmitter>(
          std::move(sink),
          options.warn ? options.warn : util::WarnFn(util::warn_to_stderr))),
      options_(std::move(options)) {}

void StreamServer::add_array(StreamArrayOptions array) {
  if (ran_) {
    throw std::logic_error("StreamServer: add_array after run()");
  }
  if (array.name.empty()) {
    throw std::invalid_argument("StreamServer: array needs a name");
  }
  if (!array.feed) {
    throw std::invalid_argument("StreamServer: array '" + array.name +
                                "' has no telemetry feed");
  }
  for (const StreamArrayOptions& existing : arrays_) {
    if (existing.name == array.name) {
      throw std::invalid_argument("StreamServer: duplicate array name '" +
                                  array.name + "'");
    }
  }
  arrays_.push_back(std::move(array));
}

std::vector<StreamArrayReport> StreamServer::run(
    const std::atomic<bool>* stop_flag) {
  if (ran_) throw std::logic_error("StreamServer: run() called twice");
  ran_ = true;
  if (arrays_.empty()) {
    throw std::logic_error("StreamServer: no arrays added");
  }

  std::vector<StreamArrayReport> reports(arrays_.size());
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    reports[i].name = arrays_[i].name;
  }

  // One thread per array; each thread touches only its own array slot and
  // report slot, so the joins below are the only synchronisation needed
  // (shared output goes through the mutex-guarded emitter).
  std::vector<std::thread> threads;
  threads.reserve(arrays_.size());
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    threads.emplace_back([this, i, stop_flag, &reports] {
      StreamArrayOptions& array = arrays_[i];
      StreamArrayReport& report = reports[i];
      try {
        run_array(array, report, stop_flag);
      } catch (const std::exception& e) {
        report.error = e.what();
        emitter_->warn("array '" + array.name + "' failed: " + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return reports;
}

void StreamServer::run_array(StreamArrayOptions& array,
                             StreamArrayReport& report,
                             const std::atomic<bool>* stop_flag) {
  StreamConfig config = array.config;  // grid fields filled on resolution
  std::unique_ptr<core::Reconfigurer> controller;
  std::unique_ptr<SimStepper> stepper;
  std::string fingerprint_text;
  // Decision-log lines emitted since the last checkpoint; the publisher
  // keeps the full log.
  std::vector<std::string> log_lines;
  CheckpointPublisher publisher(array.checkpoint_path, array.faults);
  bool checkpointing = !array.checkpoint_path.empty();
  std::size_t steps_at_checkpoint = 0;

  // Builds controller + stepper once dt and module count are known.
  const auto build = [&] {
    fingerprint_text = stream_config_fingerprint_text(config);
    publisher.set_stamp(fingerprint_text);
    controller = make_stream_controller(config);
    stepper = std::make_unique<SimStepper>(*controller, config.dt_s,
                                           config.num_modules, config.sim);
    if (checkpointing && !stepper->checkpointable()) {
      emitter_->warn("array '" + array.name + "': controller '" +
                     controller->name() +
                     "' cannot checkpoint (stateful predictor); running "
                     "uncheckpointed");
      checkpointing = false;
      report.checkpointing_disabled = true;
    }
  };

  // Snapshots the current state and publishes it with the log, in the
  // background or (on exit) on this thread.  A failed write surfaces when
  // the next checkpoint collects it: it warns once and disables
  // checkpointing — the stream itself must keep flowing.  The injected
  // crash fault models the process dying and is not caught.  If the array
  // fails first, the handler around the loop reports the write's failure.
  const auto save_checkpoint = [&](bool in_background) {
    if (!checkpointing || !stepper) return;
    StepperState state = stepper->state();
    try {
      publisher.publish(std::move(state), log_lines, in_background);
      steps_at_checkpoint = stepper->steps_consumed();
    } catch (const util::AtomicWriteCrash&) {
      throw;
    } catch (const std::exception& e) {
      emitter_->warn("array '" + array.name +
                     "': checkpoint write failed, continuing "
                     "uncheckpointed: " +
                     e.what());
      checkpointing = false;
      report.checkpointing_disabled = true;
    }
  };

  TelemetryOptions telemetry_options;
  telemetry_options.dt_s = config.dt_s;
  telemetry_options.num_modules = config.num_modules;
  telemetry_options.gap_policy = array.gap_policy;

  if (array.resume) {
    if (config.dt_s <= 0.0 || config.num_modules == 0) {
      throw std::invalid_argument(
          "resume requires an explicit grid (dt and module count): the "
          "checkpoint stamp must be validated before any data flows");
    }
    const std::optional<std::string> text =
        util::read_file_if_exists(array.checkpoint_path);
    if (text) {
      // decode_checkpoint throws loudly on corruption or a stamp
      // mismatch; that failure fails the whole array on purpose.
      build();
      DecodedCheckpoint decoded =
          decode_checkpoint(*text, fingerprint_text);
      stepper->restore_state(decoded.state);
      report.resumed = true;
      // Replayed telemetry below the restored position is expected, not
      // an ordering incident; grid index 0 is t = 0 by the trace time
      // base.
      telemetry_options.epoch_s = 0.0;
      telemetry_options.start_index = stepper->steps_consumed();
      if (array.on_resume) array.on_resume(decoded.extra_lines);
      publisher.restore_log(std::move(decoded.extra_lines));
    }
    // Missing checkpoint: a fresh start (first boot of a new deployment).
  }

  LineTelemetrySource source(std::move(array.feed), telemetry_options);

  util::Deadline stall(options_.stall_timeout_ms);
  util::Deadline idle_exit(options_.idle_exit_ms);
  bool stall_warned = false;

  const auto emit_line = [&](const util::json::Value& value) {
    std::string line = util::json::dump(value);
    emitter_->emit(line);
    if (checkpointing) log_lines.push_back(std::move(line));
  };

  try {
    while (true) {
      if (stop_flag != nullptr && stop_flag->load()) break;
      TelemetryEvent event = source.poll();
      for (const TelemetryIssue& issue : event.issues) {
        if (issue.kind == TelemetryIssue::Kind::kGap) {
          ++report.gaps;
        } else {
          ++report.out_of_order;
        }
        emit_line(issue_line(array.name, issue));
      }
      if (event.kind == TelemetryEvent::Kind::kEnd) break;
      if (event.kind == TelemetryEvent::Kind::kIdle) {
        if (options_.idle_exit_ms != 0 && idle_exit.expired()) break;
        if (options_.stall_timeout_ms != 0 && stall.expired() &&
            !stall_warned) {
          ++report.stalls;
          stall_warned = true;
          emitter_->warn("array '" + array.name + "': no telemetry from " +
                         source.describe() + " for " +
                         std::to_string(stall.elapsed_ms()) + " ms");
        }
        util::sleep_for_ms(options_.poll_ms);
        continue;
      }

      // kSample.
      stall.reset();
      idle_exit.reset();
      stall_warned = false;
      if (!stepper) {
        config.dt_s = source.dt_s();
        config.num_modules = source.num_modules();
        build();
      }
      const util::MonotonicTimer timer;
      const StepRecord rec = stepper->step(event.sample);
      report.step_latency_ms.add(timer.seconds() * 1000.0);
      if (rec.switched) {
        ++report.decisions;
        emit_line(
            decision_line(array.name, rec, stepper->current_group_starts()));
      }
      if (array.checkpoint_every_steps != 0 &&
          stepper->steps_consumed() - steps_at_checkpoint >=
              array.checkpoint_every_steps) {
        save_checkpoint(/*in_background=*/true);
      }
    }

    save_checkpoint(/*in_background=*/false);
  } catch (...) {
    // The array is failing while a write may still be in flight.  Report
    // that write's own failure now: it would otherwise vanish with the
    // publisher, which only joins the write.
    if (const std::optional<std::string> failure = publisher.settle()) {
      emitter_->warn("array '" + array.name +
                     "': checkpoint write failed: " + *failure);
      report.checkpointing_disabled = true;
    }
    throw;
  }
  report.replayed = source.replayed();
  if (stepper) report.result = stepper->result();
}

}  // namespace tegrec::sim
