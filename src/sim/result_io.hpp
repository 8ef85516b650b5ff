// Disk codec for cached experiment results.
//
// The ExperimentService's on-disk cache stores one artifact per spec
// fingerprint: a magic line, the result kind, the spec's fingerprint text
// verbatim as a counted block — decode_result() refuses a payload whose
// embedded text differs from the expected spec, so a fingerprint
// collision degrades to a cache miss, never a wrong result — then the
// result in the run-table codec checkpoints share (sim/run_table.hpp):
// each comparison run, or the Monte-Carlo sample or sweep point table, at
// exact precision, so a disk hit is bit-identical to the execution that
// produced it.  Monte-Carlo summary statistics are not stored: they are
// refolded from the samples through the engine's seed-order fold.
//
// Decoding reads through the same util::LineReader as a checkpoint, under
// the same framing rules, but every failure — a cut anywhere (the final
// newline included), a byte after "# end", a count or flag cell out of
// range — is a miss.  Artifacts are published through the ArtifactStore's
// atomic door (util/atomic_file.hpp), which removes any artifact that
// fails to decode (self-healing).
#pragma once

#include <optional>
#include <string>

#include "sim/spec.hpp"

namespace tegrec::sim {

/// Serialises a result into the artifact text.  `fingerprint_text` is the
/// spec's ExperimentSpec::fingerprint_text() — stored for the collision
/// guard above.
std::string encode_result(const ExperimentResult& result,
                          const std::string& fingerprint_text);

/// Parses an artifact.  Returns nullopt when the payload belongs to a
/// different spec (collision / stale schema) or the text is malformed or
/// truncated — every failure mode is a cache miss, never an exception, so
/// a corrupt artifact can only cost a re-simulation.
std::optional<ExperimentResult> decode_result(
    const std::string& text, const std::string& expected_fingerprint_text);

}  // namespace tegrec::sim
