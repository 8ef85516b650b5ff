// tegrec_lint — project invariant linter.
//
// Lightweight C++ source scanning that mechanically enforces the
// invariants the repo's worst historical bugs violated:
//
//  * determinism   — no wall-clock or ad-hoc randomness in the simulation
//                    layers (src/core, src/teg, src/sim, src/thermal,
//                    src/power, src/predict).  PR 1 fixed a real bug where
//                    measured wall-clock compute time was charged into
//                    simulated energies, making results vary run to run;
//                    this rule keeps that class of bug out.  Wall-clock
//                    for *runtime statistics* flows through
//                    util/runtime_clock.hpp and all randomness through
//                    util/rng.hpp (src/util is the sanctioned substrate
//                    and is exempt from this rule).
//  * float-eq      — no ==/!= against floating-point literals.  Exact
//                    sentinel comparisons route through util/float_cmp.hpp
//                    so the intent is named (PR 5's NaN-gain incident
//                    class).
//  * float-tol     — std::abs(a - b) compared against a bare numeric
//                    literal: tolerances must be named constants.
//  * cache-key     — every field of the content-addressed config structs
//                    (sim::ExperimentSpec and the option structs it
//                    embeds) must appear in sim/spec.cpp's canonical-text
//                    bindings or on a documented exclusion list.  A new
//                    struct field that does not serialise fails the build
//                    instead of silently poisoning every cached result
//                    (the hazard PR 4/5 defended against by hand).
//  * api-io        — no std::cout/printf-family console I/O in library
//                    code under src/ (snprintf-style string formatting is
//                    fine).
//  * raw-publish   — no raw file publication (std::ofstream writes or
//                    rename calls) in the simulation layer (src/sim).
//                    Files other processes can observe — spool jobs,
//                    leases, cached result artifacts — must go through the
//                    atomic temp+fsync+rename door in util/atomic_file.hpp
//                    so a crash or concurrent reader can never see a torn
//                    file.  (util's own door wrappers are the allowlist.)
//  * using-namespace — no `using namespace` in headers.
//  * include-guard — headers use `#pragma once` (the project standard),
//                    not ifndef guards, and never nothing.
//  * guarded-member — in the concurrency layer (src/util, src/sim), every
//                    data member of a class that owns a mutex must carry a
//                    TEGREC_GUARDED_BY annotation, be std::atomic/const/a
//                    reference/a condition_variable, or carry an inline
//                    `// tegrec-lint: allow(guarded-member)` with a
//                    justification.  An unguarded member next to a mutex
//                    is exactly the shape of a forgotten-lock data race.
//  * lock-discipline — no raw `.lock()` / `.unlock()` / `.try_lock()`
//                    member calls and no std::mutex declarations outside
//                    util/mutex.hpp (the annotated RAII door: util::Mutex,
//                    util::MutexLock, util::UniqueLock), and no
//                    `.detach()` anywhere.  Mid-scope unlock/relock dances
//                    defeat both RAII and clang's thread-safety analysis.
//  * annotation-drift — a concurrency-layer header that names a mutex but
//                    never uses a TEGREC_* annotation has drifted out of
//                    the compile-time lock-discipline net; annotate it (or
//                    justify with an allow).
//
// Findings print as `file:line: [rule] message`.  A finding is suppressed
// by `// tegrec-lint: allow(rule)` on the offending line or on a
// comment-only line directly above it, or by an entry in the checked-in
// baseline file (tools/lint_baseline.txt) so the gate starts green and
// ratchets down.
//
// The scanning logic lives in this small library so the GTest fixture
// suite (tests/test_lint.cpp) can assert each rule fires exactly where
// expected; the CLI (tegrec_lint_main.cpp) wraps run_repo_lint.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace tegrec::lint {

struct Finding {
  std::string file;     ///< repo-relative path (as scanned)
  std::size_t line = 0; ///< 1-based; 0 for file-level findings
  std::string rule;     ///< rule id, e.g. "float-eq"
  /// Stable token for baseline keys: the whitespace-normalised offending
  /// line for line rules, the field name for cache-key findings.  Keyed on
  /// content, not line numbers, so unrelated edits do not churn the
  /// baseline.
  std::string detail;
  std::string message;
};

/// `rule|file|detail` — the line format of the baseline file.
std::string baseline_key(const Finding& finding);

/// Parses a baseline file's content: one key per line, '#' comments and
/// blank lines ignored.
std::set<std::string> parse_baseline(const std::string& content);

/// Replaces comments and string/character-literal contents with spaces,
/// preserving the line structure, so token scans cannot fire on prose.
/// Handles //, /* */, "..." with escapes, '...', and R"delim(...)delim".
std::string strip_comments_and_strings(const std::string& content);

struct Options {
  /// Directory prefixes (repo-relative, trailing slash) where the
  /// determinism rule applies.  src/util is deliberately absent: it hosts
  /// the sanctioned wrappers (util/rng, util/runtime_clock).
  std::vector<std::string> determinism_dirs = {
      "src/core/", "src/teg/", "src/sim/",
      "src/thermal/", "src/power/", "src/predict/"};
  /// Directory prefixes where the raw-publish rule applies: the layers
  /// whose files are observed by concurrent processes (spool jobs, cached
  /// artifacts).  src/util hosts the sanctioned atomic door and is exempt.
  std::vector<std::string> raw_publish_dirs = {"src/sim/"};
  /// Directory prefixes forming the concurrency layer: guarded-member
  /// applies to every file here, annotation-drift to the headers.
  std::vector<std::string> concurrency_dirs = {"src/util/", "src/sim/"};
  /// Files exempt from lock-discipline: the annotated RAII wrappers
  /// themselves must touch the raw primitives.
  std::vector<std::string> lock_discipline_exempt = {"src/util/mutex.hpp"};
};

/// Scans one file's content.  `relpath` (repo-relative, '/'-separated)
/// selects which rules apply: determinism only under determinism_dirs,
/// header rules only for .hpp files.
std::vector<Finding> scan_source(const std::string& relpath,
                                 const std::string& content,
                                 const Options& options = {});

// ------------------------------------------------------ cache-key checking

/// One content-addressed struct to cross-check against the bindings file.
struct StructSpec {
  std::string header_path;  ///< repo-relative header declaring the struct
  std::string struct_name;  ///< unqualified name, e.g. "TraceGeneratorConfig"
  /// Fields that intentionally do not appear in the bindings, each with a
  /// documented justification (rendered in the finding message if the
  /// field disappears, and in --list-rules output).
  std::vector<std::pair<std::string, std::string>> excluded_fields;
  /// Repo-relative source whose text must name every field.  Empty uses
  /// default_bindings_path() — the experiment-spec canonical-text
  /// bindings.  The checkpoint and run-table structs point at the files
  /// that bind them instead: same hazard (a field that does not serialise
  /// resumes a different simulation), different serialiser.
  std::string bindings_path;
};

struct FieldDecl {
  std::string name;
  std::size_t line = 0;  ///< 1-based declaration line
};

/// Extracts the data-member names of `struct_name` from a header.  Skips
/// nested types, member functions, static members and using-declarations.
/// Returns an empty list if the struct is not found (the caller reports
/// that as a finding: a renamed struct must not silently disable its
/// check).
std::vector<FieldDecl> parse_struct_fields(const std::string& header_content,
                                           const std::string& struct_name);

/// Cross-checks one struct's fields against the bindings source: every
/// field name must appear as a whole word in `bindings_content` or be on
/// the exclusion list.  Also flags exclusion-list entries that no longer
/// match any field (stale exclusions hide future bugs).
std::vector<Finding> check_cache_key(const StructSpec& spec,
                                     const std::string& header_content,
                                     const std::string& bindings_content,
                                     const std::string& bindings_path);

/// The repo's content-addressed structs (headers under src/, bindings in
/// src/sim/spec.cpp).  Execution hints (thread counts) still appear in the
/// bindings — they serialise but are excluded from the *fingerprint* by
/// spec.cpp's exec_field mechanism, which the runtime twin of this check
/// (tests/test_fingerprint_fields.cpp) verifies field by field.
std::vector<StructSpec> default_struct_specs();
std::string default_bindings_path();

// --------------------------------------------------------------- repo run

struct RepoReport {
  std::vector<Finding> findings;    ///< non-baselined, gate on these
  std::vector<Finding> baselined;   ///< matched a baseline entry
  std::set<std::string> stale_baseline;  ///< baseline keys nothing matched
  std::size_t files_scanned = 0;
};

/// Scans every .hpp/.cpp under <root>/src plus the cache-key cross-check,
/// filtering findings against `baseline`.  Stale baseline entries are
/// reported so the ratchet only ever tightens.
RepoReport run_repo_lint(const std::string& root,
                         const std::set<std::string>& baseline,
                         const Options& options = {});

}  // namespace tegrec::lint
