#include "sim/stream_server.hpp"

#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/atomic_file.hpp"
#include "util/json.hpp"
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
  std::vector<std::string> log_lines;  // full decision log incl. restored
  // Renders only the step rows and log lines new since the last checkpoint.
  CheckpointEncoder encoder;
  bool checkpointing = !array.checkpoint_path.empty();
  std::size_t steps_at_checkpoint = 0;

  // Builds controller + stepper once dt and module count are known.
  const auto build = [&] {
    fingerprint_text = stream_config_fingerprint_text(config);
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

  // Publishes the current state + log.  A write failure warns once and
  // disables checkpointing — the stream itself must keep flowing.  The
  // injected crash fault models the process dying and is not caught.
  const auto save_checkpoint = [&] {
    if (!checkpointing || !stepper) return;
    try {
      const std::string content =
          encoder.encode(stepper->state(), fingerprint_text, log_lines);
      util::AtomicWriteOptions write_options;
      write_options.fault_site = "stream.checkpoint";
      write_options.faults = array.faults;
      util::atomic_write_file(array.checkpoint_path, content, write_options);
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
      const DecodedCheckpoint decoded =
          decode_checkpoint(*text, fingerprint_text);
      stepper->restore_state(decoded.state);
      log_lines = decoded.extra_lines;
      report.resumed = true;
      // Replayed telemetry below the restored position is expected, not
      // an ordering incident; grid index 0 is t = 0 by the trace time
      // base.
      telemetry_options.epoch_s = 0.0;
      telemetry_options.start_index = stepper->steps_consumed();
      if (array.on_resume) array.on_resume(log_lines);
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
    log_lines.push_back(std::move(line));
  };

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
      save_checkpoint();
    }
  }

  save_checkpoint();
  report.replayed = source.replayed();
  if (stepper) report.result = stepper->result();
}

}  // namespace tegrec::sim
