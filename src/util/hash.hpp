// Content hashing for the experiment cache (FNV-1a, 64 bit).
//
// The experiment service addresses cached results by a fingerprint of the
// spec's canonical serialisation (plus, for CSV trace sources, the file
// bytes).  FNV-1a is deterministic across platforms, has no dependencies,
// and is cheap enough to hash a 10k-module trace without showing up in a
// profile.  Fingerprints concatenate two independently seeded 64-bit
// hashes (128 bits total), and every cache lookup additionally compares
// the canonical text, so a hash collision can never serve a wrong result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tegrec::util {

/// FNV-1a offset basis (the standard 64-bit seed).
inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;
/// A second, unrelated seed for the fingerprint's high half.
inline constexpr std::uint64_t kFnv1aAltBasis = 0x6c62272e07bb0142ULL;

/// One FNV-1a step over a byte range, continuing from `state`.
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t state = kFnv1aOffsetBasis);

/// Convenience overload for strings.
std::uint64_t fnv1a64(std::string_view text,
                      std::uint64_t state = kFnv1aOffsetBasis);

/// Hashes a file's raw bytes in one pass that advances both fingerprint
/// halves (reading the file twice would double the IO of every submit);
/// throws std::runtime_error if the file cannot be read.
void fnv1a64_file(const std::string& path, std::uint64_t& state_a,
                  std::uint64_t& state_b);

/// Hashes a double by bit pattern (so -0.0 != 0.0 and every NaN payload is
/// distinct — the exactness the bit-identical cache guarantee needs).
std::uint64_t fnv1a64_double(double value, std::uint64_t state);

/// 16 lowercase hex digits.
std::string hex64(std::uint64_t value);

}  // namespace tegrec::util
