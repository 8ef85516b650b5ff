// The one door through which the library prints a double as text.
//
// Every codec that must round-trip doubles (checkpoints, result-cache
// artifacts, spec canonical text and fingerprints, controller state blobs,
// JSON decision lines, CSV tables) formats through here, so the dialect is
// defined in exactly one place: the bytes of printf("%.*g", precision, v)
// in the "C" locale.  At kExactDoublePrecision (max_digits10) every double
// reads back bit-exactly, which the fingerprints and the resume-from-
// checkpoint guarantee rest on.  Built on std::to_chars, so it neither
// touches the locale nor allocates.
#pragma once

#include <string>

namespace tegrec::util {

/// Significant digits that round-trip every double bit-exactly.
inline constexpr int kExactDoublePrecision = 17;

/// Appends `value` to `out` as printf("%.*g", precision, value) would
/// render it ("inf", "-inf", "nan" and "-nan" included).  `precision`
/// must lie in [0, 64]; throws std::invalid_argument otherwise.
void append_double(std::string& out, double value,
                   int precision = kExactDoublePrecision);

/// The same rendering as a fresh string.
std::string format_double(double value, int precision = kExactDoublePrecision);

}  // namespace tegrec::util
