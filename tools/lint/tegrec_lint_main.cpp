// tegrec_lint CLI — see lint.hpp for the rule catalogue and
// docs/static_analysis.md for the full story (motivating incidents,
// suppression syntax, baseline ratchet).
//
//   tegrec_lint --root <repo> [--baseline <file>] [--update-baseline]
//               [--json]
//   tegrec_lint --list-rules
//
// Exit status: 0 when every finding is baselined (or none exist),
// 1 on non-baselined findings, 2 on usage/IO errors.  Stale baseline
// entries are reported but do not fail the gate; --update-baseline
// rewrites the baseline to exactly the current findings (the ratchet:
// run it after fixing violations to tighten, never to hide new ones).
//
// --json replaces the human-readable report with one JSON object
// ({"findings": [{rule, file, line, message}, ...], ...}) for editor and
// CI integration; exit-code semantics are unchanged.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace {

void print_rules() {
  std::cout
      << "tegrec_lint rules (suppress with // tegrec-lint: allow(<rule>)):\n"
      << "  determinism      wall clock / ad-hoc RNG banned in src/{core,teg,"
         "sim,thermal,power,predict}\n"
      << "                   (util/runtime_clock.hpp and util/rng.hpp are the "
         "sanctioned wrappers)\n"
      << "  float-eq         ==/!= against floating-point literals; use "
         "util/float_cmp.hpp\n"
      << "  float-tol        |a-b| compared against a bare literal; name the "
         "tolerance\n"
      << "  api-io           no console I/O (std::cout/printf family) in "
         "library code\n"
      << "  raw-publish      no raw file publication (std::ofstream / rename "
         "calls) in src/sim;\n"
      << "                   use the atomic door in util/atomic_file.hpp\n"
      << "  using-namespace  no 'using namespace' in headers\n"
      << "  include-guard    headers use #pragma once\n"
      << "  guarded-member   data members of mutex-owning classes in "
         "src/{util,sim} must carry\n"
      << "                   TEGREC_GUARDED_BY, be std::atomic/const, or "
         "justify an allow\n"
      << "  lock-discipline  no raw .lock()/.unlock()/.try_lock() or "
         "std::mutex outside\n"
      << "                   util/mutex.hpp (the annotated RAII door); no "
         ".detach() anywhere\n"
      << "  annotation-drift concurrency-layer headers that name a mutex "
         "must use TEGREC_*\n"
      << "                   thread-safety annotations\n";
}

int usage() {
  std::cerr << "usage: tegrec_lint --root <repo-root> [--baseline <file>]\n"
               "                   [--update-baseline] [--json] | "
               "--list-rules\n";
  return 2;
}

/// JSON string escaping per RFC 8259 (quotes, backslash, control chars).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void print_findings_json(const std::vector<tegrec::lint::Finding>& findings,
                         const char* indent) {
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const auto& f = findings[i];
    std::cout << indent << "{\"rule\": \"" << json_escape(f.rule)
              << "\", \"file\": \"" << json_escape(f.file)
              << "\", \"line\": " << f.line << ", \"message\": \""
              << json_escape(f.message) << "\"}"
              << (i + 1 < findings.size() ? ",\n" : "\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::string baseline_path;
  bool update_baseline = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      print_rules();
      return 0;
    }
    if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::cerr << "tegrec_lint: unknown argument '" << arg << "'\n";
      return usage();
    }
  }
  if (root.empty()) return usage();

  std::set<std::string> baseline;
  if (!baseline_path.empty()) {
    std::ifstream f(baseline_path);
    if (f) {
      std::string content((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
      baseline = tegrec::lint::parse_baseline(content);
    }
    // A missing baseline file is an empty baseline, so a fresh checkout
    // with no baseline is the strictest gate, not an error.
  }

  tegrec::lint::RepoReport report;
  try {
    report = tegrec::lint::run_repo_lint(root, baseline);
  } catch (const std::exception& e) {
    std::cerr << "tegrec_lint: " << e.what() << "\n";
    return 2;
  }

  if (json) {
    std::cout << "{\n  \"files_scanned\": " << report.files_scanned
              << ",\n  \"findings\": [\n";
    print_findings_json(report.findings, "    ");
    std::cout << "  ],\n  \"baselined\": [\n";
    print_findings_json(report.baselined, "    ");
    std::cout << "  ],\n  \"stale_baseline\": [\n";
    std::size_t i = 0;
    for (const auto& key : report.stale_baseline) {
      std::cout << "    \"" << json_escape(key) << "\""
                << (++i < report.stale_baseline.size() ? ",\n" : "\n");
    }
    std::cout << "  ]\n}\n";
  } else {
    for (const auto& f : report.findings) {
      std::cout << f.file;
      if (f.line > 0) std::cout << ":" << f.line;
      std::cout << ": [" << f.rule << "] " << f.message << "\n";
    }
    for (const auto& key : report.stale_baseline) {
      std::cout << "stale baseline entry (fixed? tighten the ratchet by "
                   "removing it): "
                << key << "\n";
    }
  }

  if (update_baseline && !baseline_path.empty()) {
    std::ofstream out(baseline_path, std::ios::trunc);
    out << "# tegrec_lint baseline — pre-existing findings the gate "
           "tolerates.\n"
        << "# Regenerate with: tegrec_lint --root . --baseline "
           "tools/lint_baseline.txt --update-baseline\n"
        << "# The ratchet only tightens: fix findings and regenerate; never "
           "add entries by hand to\n"
        << "# sneak new violations past CI.  Format: rule|file|detail.\n";
    for (const auto& f : report.findings) {
      out << tegrec::lint::baseline_key(f) << "\n";
    }
    for (const auto& f : report.baselined) {
      out << tegrec::lint::baseline_key(f) << "\n";
    }
    std::cout << "tegrec_lint: baseline rewritten with "
              << report.findings.size() + report.baselined.size()
              << " entries\n";
    return 0;
  }

  if (!json) {
    std::cout << "tegrec_lint: " << report.files_scanned << " files scanned, "
              << report.findings.size() << " finding(s), "
              << report.baselined.size() << " baselined\n";
  }
  return report.findings.empty() ? 0 : 1;
}
