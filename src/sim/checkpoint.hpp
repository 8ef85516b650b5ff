// Versioned, fingerprint-stamped on-disk checkpoints for streaming runs.
//
// A streamed simulation (sim/stepper.hpp, sim/stream_server.hpp) is only
// as durable as its checkpoint: the codec here serialises one
// StepperState — plus the caller's carry-along lines, e.g. a server's
// decision log — into a line-structured text artifact in the result_io
// dialect (magic line, `key = value` scalars, `# table rows = N` CSV
// tables at exact precision), published exclusively through
// util::atomic_write_file so a reader can never observe a torn file.
//
// Every checkpoint embeds the *configuration stamp* of the run that wrote
// it: the StreamConfig's canonical fingerprint text, verbatim.  decode
// compares that text (not just a hash) against the resuming run's stamp
// and throws on any difference, so a checkpoint can never resume against
// a different scheme, cadence, array size, or physics spec — changing any
// result-affecting field invalidates old checkpoints loudly instead of
// splicing two incompatible histories.  Unlike the result cache (where a
// decode failure is just a miss), every decode failure here throws
// std::runtime_error: silently restarting from scratch would discard the
// operator's history, so corrupt, truncated, or mismatched checkpoints
// must be loud.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/reconfigurer.hpp"
#include "sim/stepper.hpp"

namespace tegrec::sim {

/// Bump when the checkpoint serialisation (or the semantics of any field
/// in it) changes; old checkpoints then fail the magic check loudly
/// instead of mis-restoring.
inline constexpr int kCheckpointSchemaVersion = 1;

/// Reconfiguration scheme of one streamed array.
enum class StreamScheme { kDnor, kInor, kEhtr, kBaseline };

/// Scheme name as spelled on the CLI and in the fingerprint text
/// ("dnor" / "inor" / "ehtr" / "baseline"); parse is the exact inverse
/// and throws std::invalid_argument on unknown names.
std::string stream_scheme_name(StreamScheme scheme);
StreamScheme parse_stream_scheme(const std::string& name);

/// Everything that pins down one streamed simulation: which controller,
/// on what cadence, over what array, under which physics options.  The
/// canonical fingerprint text below covers every result-affecting field
/// (sim's execution hints excluded), so two StreamConfigs with equal
/// stamps produce bit-identical decision streams from equal telemetry.
struct StreamConfig {
  StreamScheme scheme = StreamScheme::kDnor;
  double control_period_s = 0.5;  ///< controller cadence (paper: 0.5 s)
  double dt_s = 0.5;              ///< telemetry grid the stepper runs on
  std::size_t num_modules = 0;
  SimulationOptions sim;
};

/// Builds the scheme's controller.  The batch comparison harness
/// (detail::run_comparison_direct) builds through this same factory, so a
/// streamed run over a trace's samples is bit-identical to the batch run
/// over the trace.
std::unique_ptr<core::Reconfigurer> make_stream_controller(
    const StreamConfig& config);

/// Canonical `key = value` stamp of every result-affecting StreamConfig
/// field (doubles at %.17g; sim.* lines via
/// simulation_options_fingerprint_text).
std::string stream_config_fingerprint_text(const StreamConfig& config);

/// 32-hex-digit content hash of the stamp (same dual-basis construction
/// as the experiment-spec fingerprint, plus the checkpoint schema
/// version).  Convenience for naming checkpoint files; the codec always
/// compares the full text, never just this hash.
std::string stream_config_fingerprint(const StreamConfig& config);

/// A decoded checkpoint: the stepper snapshot plus the caller's
/// carry-along lines, byte-preserved in order.
struct DecodedCheckpoint {
  StepperState state;
  std::vector<std::string> extra_lines;
};

/// Incremental checkpoint encoder for one growing stream.  A stream's step
/// table and decision log only ever grow, so the encoder keeps the text of
/// the step rows and extra lines it has already rendered and, on each call,
/// renders only the entries past that point; the small head (magic, stamp,
/// scalars, controller blob, summary) is rebuilt every time and spliced
/// with the kept text.  Its output is byte-identical to a fresh encode of
/// the same arguments.
///
/// The cache is guarded at its seam: when the step table or line list is
/// shorter than what was rendered, or its last rendered entry no longer
/// renders to the kept text (e.g. after SimStepper::restore_state to a
/// different snapshot), that cache is dropped and re-rendered in full.
/// Entries before the seam are trusted, so between calls a history may be
/// appended to or replaced wholesale, never edited in the middle.
class CheckpointEncoder {
 public:
  /// Serialises state + extras under the given configuration stamp.
  /// `extra_lines` must not contain '\n' or '\r' (throws
  /// std::invalid_argument, leaving the encoder as it was) — each entry is
  /// one line of the artifact, and the reader strips a trailing '\r'.
  /// Only lines not yet rendered are checked.
  std::string encode(const StepperState& state,
                     const std::string& fingerprint_text,
                     const std::vector<std::string>& extra_lines = {});

 private:
  /// The first `count` entries of one sequence, rendered as '\n'-ended
  /// lines; the last of them starts at `last`.
  struct RenderedLines {
    std::string text;
    std::size_t count = 0;
    std::size_t last = 0;
  };
  RenderedLines rows_;   ///< step table rows
  RenderedLines extra_;  ///< carry-along lines
};

/// One-shot encode: CheckpointEncoder{}.encode(...).
std::string encode_checkpoint(const StepperState& state,
                              const std::string& fingerprint_text,
                              const std::vector<std::string>& extra_lines = {});

/// Parses a checkpoint and verifies its embedded stamp equals
/// `expected_fingerprint_text`.  Throws std::runtime_error on bad magic,
/// truncation, malformed fields, internal inconsistency, or a stamp
/// mismatch — every failure is loud (see the header comment for why).
DecodedCheckpoint decode_checkpoint(const std::string& text,
                                    const std::string& expected_fingerprint_text);

}  // namespace tegrec::sim
