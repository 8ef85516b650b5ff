#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

namespace tegrec::lint {

namespace {

bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::vector<std::string> split_lines_keep(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  lines.push_back(current);
  return lines;
}

/// Whole-word occurrence of `word` in `text` (word chars on neither side).
bool contains_word(const std::string& text, const std::string& word) {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_word_char(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !is_word_char(text[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

/// Like contains_word but requires an open paren (after optional spaces)
/// following the word — matches call sites such as `rand(` or `time (`.
bool contains_call(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_word_char(text[pos - 1]);
    std::size_t end = pos + name.size();
    while (end < text.size() && (text[end] == ' ' || text[end] == '\t')) ++end;
    if (left_ok && end < text.size() && text[end] == '(') return true;
    pos += 1;
  }
  return false;
}

std::string normalize_ws(const std::string& line) {
  std::string out;
  bool in_space = true;  // also trims leading whitespace
  for (char c : line) {
    if (c == ' ' || c == '\t') {
      if (!in_space) out += ' ';
      in_space = true;
    } else {
      out += c;
      in_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

// ------------------------------------------------------------ suppression

/// Per-line `// tegrec-lint: allow(rule-a, rule-b)` sets, with comment-only
/// lines donating their allows to the next line that has code on it.
class AllowMap {
 public:
  AllowMap(const std::vector<std::string>& raw_lines,
           const std::vector<std::string>& stripped_lines) {
    effective_.resize(raw_lines.size());
    std::set<std::string> pending;
    for (std::size_t i = 0; i < raw_lines.size(); ++i) {
      std::set<std::string> own = parse_allows(raw_lines[i]);
      const bool has_code =
          normalize_ws(stripped_lines[i]).find_first_not_of(' ') !=
          std::string::npos;
      if (has_code) {
        effective_[i] = own;
        effective_[i].insert(pending.begin(), pending.end());
        pending.clear();
      } else if (!own.empty()) {
        // Comment-only line: applies to the next code line.
        pending.insert(own.begin(), own.end());
      }
    }
  }

  bool allows(std::size_t line_index, const std::string& rule) const {
    if (line_index >= effective_.size()) return false;
    return effective_[line_index].count(rule) != 0;
  }

 private:
  static std::set<std::string> parse_allows(const std::string& raw_line) {
    std::set<std::string> rules;
    const std::string marker = "tegrec-lint: allow(";
    std::size_t pos = raw_line.find(marker);
    if (pos == std::string::npos) return rules;
    pos += marker.size();
    const std::size_t close = raw_line.find(')', pos);
    if (close == std::string::npos) return rules;
    std::string token;
    for (std::size_t i = pos; i <= close; ++i) {
      const char c = raw_line[i];
      if (c == ',' || c == ')') {
        if (!token.empty()) rules.insert(token);
        token.clear();
      } else if (c != ' ' && c != '\t') {
        token += c;
      }
    }
    return rules;
  }

  std::vector<std::set<std::string>> effective_;
};

// -------------------------------------------------------------- tokenizer

/// Classifies a pp-number token as a floating-point literal.
bool is_float_literal(const std::string& token) {
  if (token.empty()) return false;
  if (!(std::isdigit(static_cast<unsigned char>(token[0])) != 0 ||
        token[0] == '.')) {
    return false;
  }
  std::string t;
  for (char c : token) {
    if (c != '\'') t += static_cast<char>(std::tolower(c));
  }
  if (starts_with(t, "0x")) return t.find('p') != std::string::npos;
  if (t.find('.') != std::string::npos) return true;
  // Decimal exponent (1e9) or float suffix (sans '.' only valid with 'e').
  return t.find('e') != std::string::npos;
}

/// Reads the primary token immediately after `pos` (skipping spaces):
/// returns a pp-number, identifier, or empty for anything else.
std::string token_after(const std::string& line, std::size_t pos) {
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  if (pos >= line.size()) return "";
  std::string token;
  if (std::isdigit(static_cast<unsigned char>(line[pos])) != 0 ||
      (line[pos] == '.' && pos + 1 < line.size() &&
       std::isdigit(static_cast<unsigned char>(line[pos + 1])) != 0)) {
    // pp-number: digits, '.', word chars, exponent signs.
    while (pos < line.size()) {
      const char c = line[pos];
      if (is_word_char(c) || c == '.' || c == '\'') {
        token += c;
        ++pos;
      } else if ((c == '+' || c == '-') && !token.empty() &&
                 (token.back() == 'e' || token.back() == 'E' ||
                  token.back() == 'p' || token.back() == 'P')) {
        token += c;
        ++pos;
      } else {
        break;
      }
    }
    return token;
  }
  if (is_word_char(line[pos])) {
    while (pos < line.size() && is_word_char(line[pos])) token += line[pos++];
  }
  return token;
}

/// Reads the primary token ending immediately before `pos` (exclusive),
/// skipping spaces backwards.
std::string token_before(const std::string& line, std::size_t pos) {
  std::size_t end = pos;
  while (end > 0 && (line[end - 1] == ' ' || line[end - 1] == '\t')) --end;
  if (end == 0) return "";
  std::size_t begin = end;
  while (begin > 0) {
    const char c = line[begin - 1];
    if (is_word_char(c) || c == '.' || c == '\'') {
      --begin;
    } else if ((c == '+' || c == '-') && begin >= 2 &&
               (line[begin - 2] == 'e' || line[begin - 2] == 'E')) {
      begin -= 2;  // exponent sign inside a literal like 1e-12
    } else {
      break;
    }
  }
  return line.substr(begin, end - begin);
}

// ----------------------------------------------------------- line scanners

struct TokenRule {
  const char* token;
  bool call_form;  ///< require a following '(' (bare names are too common)
  const char* hint;
};

const TokenRule kDeterminismTokens[] = {
    {"system_clock", false, "use util/runtime_clock.hpp for runtime stats"},
    {"steady_clock", false, "use util/runtime_clock.hpp for runtime stats"},
    {"high_resolution_clock", false,
     "use util/runtime_clock.hpp for runtime stats"},
    {"random_device", false, "seed util::Rng explicitly instead"},
    {"mt19937", false, "all RNG must flow through util::Rng (util/rng.hpp)"},
    {"mt19937_64", false, "all RNG must flow through util::Rng (util/rng.hpp)"},
    {"minstd_rand", false, "all RNG must flow through util::Rng"},
    {"default_random_engine", false, "all RNG must flow through util::Rng"},
    {"uniform_int_distribution", false,
     "draw through util::Rng so streams stay reproducible"},
    {"uniform_real_distribution", false,
     "draw through util::Rng so streams stay reproducible"},
    {"normal_distribution", false,
     "draw through util::Rng so streams stay reproducible"},
    {"bernoulli_distribution", false,
     "draw through util::Rng so streams stay reproducible"},
    {"rand", true, "all RNG must flow through util::Rng (util/rng.hpp)"},
    {"srand", true, "all RNG must flow through util::Rng (util/rng.hpp)"},
    {"time", true, "wall clock is banned in simulation layers (PR 1 bug)"},
    {"clock", true, "wall clock is banned in simulation layers (PR 1 bug)"},
    {"gettimeofday", true, "wall clock is banned in simulation layers"},
    {"clock_gettime", true, "wall clock is banned in simulation layers"},
    {"timespec_get", true, "wall clock is banned in simulation layers"},
    {"localtime", true, "wall clock is banned in simulation layers"},
    {"gmtime", true, "wall clock is banned in simulation layers"},
};

const TokenRule kRawPublishTokens[] = {
    {"ofstream", false,
     "files other processes observe must be published through "
     "util::atomic_write_file (temp+fsync+rename), not written in place"},
    {"rename", true,
     "claim/publish renames must go through util/atomic_file.hpp "
     "(rename_file / atomic_write_file) so the protocol stays in one "
     "audited door"},
};

const TokenRule kApiIoTokens[] = {
    {"cout", false, "library code must not write to the console"},
    {"cerr", false, "library code must not write to the console"},
    {"clog", false, "library code must not write to the console"},
    {"printf", true,
     "library code must not write to the console (snprintf is fine)"},
    {"fprintf", true, "library code must not write to the console"},
    {"puts", true, "library code must not write to the console"},
    {"fputs", true, "library code must not write to the console"},
    {"putchar", true, "library code must not write to the console"},
    {"vprintf", true, "library code must not write to the console"},
};

void scan_token_rules(const std::string& rule, const TokenRule* rules,
                      std::size_t num_rules, const std::string& relpath,
                      const std::vector<std::string>& stripped_lines,
                      const AllowMap& allows, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
    const std::string& line = stripped_lines[i];
    if (line.empty() || allows.allows(i, rule)) continue;
    for (std::size_t r = 0; r < num_rules; ++r) {
      const TokenRule& t = rules[r];
      const bool hit = t.call_form ? contains_call(line, t.token)
                                   : contains_word(line, t.token);
      if (hit) {
        out.push_back({relpath, i + 1, rule, normalize_ws(line),
                       std::string("'") + t.token + "': " + t.hint});
        break;  // one finding per line per rule keeps output readable
      }
    }
  }
}

void scan_float_eq(const std::string& relpath,
                   const std::vector<std::string>& stripped_lines,
                   const AllowMap& allows, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
    const std::string& line = stripped_lines[i];
    if (line.empty() || allows.allows(i, "float-eq")) continue;
    for (std::size_t pos = 0; pos + 1 < line.size(); ++pos) {
      const bool is_eq = line[pos] == '=' && line[pos + 1] == '=';
      const bool is_ne = line[pos] == '!' && line[pos + 1] == '=';
      if (!is_eq && !is_ne) continue;
      // Not part of <=, >=, +=, ... (char before an `==`/`!=` operator
      // cannot itself be an operator char).
      if (is_eq && pos > 0 &&
          std::string("<>+-*/%&|^!=").find(line[pos - 1]) !=
              std::string::npos) {
        continue;
      }
      const std::string before = token_before(line, pos);
      if (before == "operator") continue;
      const std::string after = token_after(line, pos + 2);
      if (is_float_literal(before) || is_float_literal(after)) {
        out.push_back(
            {relpath, i + 1, "float-eq", normalize_ws(line),
             "floating-point ==/!= against a literal; use util/float_cmp.hpp "
             "(exactly_equal / is_exactly_zero / near) so the intent is "
             "named"});
        break;
      }
      pos += 1;  // skip the second operator char
    }
  }
}

void scan_float_tol(const std::string& relpath,
                    const std::vector<std::string>& stripped_lines,
                    const AllowMap& allows, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
    const std::string& line = stripped_lines[i];
    if (line.empty() || allows.allows(i, "float-tol")) continue;
    for (const char* name : {"abs", "fabs", "fabsf", "fabsl"}) {
      std::size_t pos = 0;
      bool flagged = false;
      while ((pos = line.find(name, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !is_word_char(line[pos - 1]) ||
                             (pos >= 2 && line[pos - 1] == ':' &&
                              line[pos - 2] == ':');
        std::size_t p = pos + std::string(name).size();
        pos = p;
        if (!left_ok) continue;
        while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) ++p;
        if (p >= line.size() || line[p] != '(') continue;
        int depth = 0;
        bool has_minus = false;
        std::size_t q = p;
        for (; q < line.size(); ++q) {
          if (line[q] == '(') ++depth;
          if (line[q] == '-' && depth >= 1) has_minus = true;
          if (line[q] == ')') {
            --depth;
            if (depth == 0) break;
          }
        }
        if (q >= line.size() || !has_minus) continue;  // not a difference
        std::size_t c = q + 1;
        while (c < line.size() && (line[c] == ' ' || line[c] == '\t')) ++c;
        if (c >= line.size() ||
            (line[c] != '<' && line[c] != '>')) {
          continue;
        }
        ++c;
        if (c < line.size() && line[c] == '=') ++c;
        const std::string rhs = token_after(line, c);
        if (!rhs.empty() &&
            (std::isdigit(static_cast<unsigned char>(rhs[0])) != 0 ||
             rhs[0] == '.')) {
          out.push_back(
              {relpath, i + 1, "float-tol", normalize_ws(line),
               "tolerance in |a-b| comparison is a bare literal; name it "
               "(constexpr double kFooTolerance = ...) or use "
               "util::near(a, b, kFooTolerance)"});
          flagged = true;
          break;
        }
      }
      if (flagged) break;
    }
  }
}

// ------------------------------------------------- lock-discipline scanning

/// `name` as a member call: preceded by '.' or '->' and followed (after
/// optional spaces) by '(' — matches `m.lock()`, `t->detach ()`.
bool contains_member_call(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const bool dot = pos >= 1 && text[pos - 1] == '.';
    const bool arrow = pos >= 2 && text[pos - 2] == '-' && text[pos - 1] == '>';
    std::size_t end = pos + name.size();
    pos += 1;
    if (!dot && !arrow) continue;
    if (end < text.size() && is_word_char(text[end])) continue;
    while (end < text.size() && (text[end] == ' ' || text[end] == '\t')) ++end;
    if (end < text.size() && text[end] == '(') return true;
  }
  return false;
}

struct MemberCallRule {
  const char* name;
  const char* hint;
};

const MemberCallRule kRawLockCalls[] = {
    {"lock",
     "raw .lock() call; hold a util::MutexLock / util::UniqueLock "
     "(util/mutex.hpp) so the critical section is a scope the clang "
     "thread-safety analysis can see"},
    {"unlock",
     "raw .unlock() call; mid-scope unlock/relock dances defeat RAII — "
     "restructure the locked region into its own scope instead"},
    {"try_lock",
     "raw .try_lock() call; route locking through util/mutex.hpp so "
     "acquire/release stay analyzable"},
};

const char* const kRawMutexTypes[] = {
    "std::mutex",           "std::recursive_mutex",
    "std::timed_mutex",     "std::recursive_timed_mutex",
    "std::shared_mutex",    "std::shared_timed_mutex",
};

void scan_lock_discipline(const std::string& relpath,
                          const std::vector<std::string>& stripped_lines,
                          const AllowMap& allows, std::vector<Finding>& out) {
  const std::string rule = "lock-discipline";
  for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
    const std::string& line = stripped_lines[i];
    if (line.empty() || allows.allows(i, rule)) continue;
    std::string message;
    if (contains_member_call(line, "detach")) {
      message =
          "'.detach()': a detached thread outlives its owner's invariants; "
          "keep the handle and join it on every exit path (the "
          "HeartbeatGuard / ThreadPool destructor pattern)";
    } else {
      for (const MemberCallRule& r : kRawLockCalls) {
        if (contains_member_call(line, r.name)) {
          message = std::string("'.") + r.name + "()': " + r.hint;
          break;
        }
      }
    }
    if (message.empty()) {
      for (const char* type : kRawMutexTypes) {
        // Qualified-type occurrence with a word boundary on the right.
        std::size_t pos = 0;
        const std::string t(type);
        while ((pos = line.find(t, pos)) != std::string::npos) {
          const bool left_ok = pos == 0 || !is_word_char(line[pos - 1]);
          const std::size_t end = pos + t.size();
          const bool right_ok = end >= line.size() || !is_word_char(line[end]);
          pos += 1;
          if (left_ok && right_ok) {
            message = std::string("'") + type +
                      "': declare util::Mutex (util/mutex.hpp) instead — "
                      "the annotated capability type is what lets clang "
                      "check lock discipline at compile time";
            break;
          }
        }
        if (!message.empty()) break;
      }
    }
    if (!message.empty()) {
      out.push_back({relpath, i + 1, rule, normalize_ws(line), message});
    }
  }
}

// -------------------------------------------------- guarded-member scanning

bool mentions_mutex_type(const std::string& stmt) {
  return contains_word(stmt, "Mutex") || contains_word(stmt, "mutex") ||
         contains_word(stmt, "recursive_mutex") ||
         contains_word(stmt, "timed_mutex") ||
         contains_word(stmt, "shared_mutex") ||
         contains_word(stmt, "shared_timed_mutex");
}

/// Extracts the class name from the declaration text preceding its '{'
/// (e.g. "template <class T> class Foo final" -> "Foo").  Cosmetic only —
/// used in finding messages and baseline keys.
std::string class_name_of(const std::string& decl) {
  std::string head = decl;
  // Cut a base-clause: the first ':' that is not part of '::'.
  for (std::size_t i = 0; i < head.size(); ++i) {
    if (head[i] != ':') continue;
    const bool double_colon = (i + 1 < head.size() && head[i + 1] == ':') ||
                              (i > 0 && head[i - 1] == ':');
    if (!double_colon) {
      head = head.substr(0, i);
      break;
    }
  }
  std::string name;
  std::string token;
  const auto flush = [&] {
    if (token.empty()) return;
    if (token != "final" && token != "alignas" &&
        !starts_with(token, "TEGREC_")) {
      name = token;  // last plausible identifier wins
    }
    token.clear();
  };
  for (char c : head) {
    if (is_word_char(c)) {
      token += c;
    } else {
      flush();
    }
  }
  flush();
  return name.empty() ? std::string("<anonymous>") : name;
}

/// One class/struct body being walked; `members` holds the direct data
/// members that still need a guard once the body closes.
struct GuardedScanLevel {
  bool is_class = false;
  std::string class_name;
  bool has_mutex = false;
  struct Candidate {
    std::string name;
    std::size_t line = 0;
  };
  std::vector<Candidate> candidates;
  std::string stmt;
  std::size_t stmt_line = 1;
  bool stmt_had_braces = false;
};

void process_member_statement(GuardedScanLevel& level) {
  std::string stmt = normalize_ws(level.stmt);
  const std::size_t line = level.stmt_line;
  const bool had_braces = level.stmt_had_braces;
  level.stmt.clear();
  level.stmt_had_braces = false;
  if (!level.is_class || stmt.empty() || had_braces) return;
  for (const char* label : {"public:", "private:", "protected:"}) {
    if (starts_with(stmt, label)) {
      stmt = stmt.substr(std::string(label).size());
      while (!stmt.empty() && stmt.front() == ' ') stmt.erase(0, 1);
    }
  }
  if (stmt.empty()) return;
  for (const char* prefix : {"static", "using", "typedef", "friend",
                             "template", "operator", "enum"}) {
    if (starts_with(stmt, prefix)) return;
  }
  if (stmt.find("operator") != std::string::npos) return;
  // Annotated (or documented-exempt) members are satisfied.
  if (stmt.find("TEGREC_GUARDED_BY") != std::string::npos ||
      stmt.find("TEGREC_PT_GUARDED_BY") != std::string::npos) {
    return;
  }
  if (mentions_mutex_type(stmt)) {
    level.has_mutex = true;  // the capability itself needs no guard
    return;
  }
  // A '(' at this point is a constructor/function declaration (annotated
  // members were dispatched above, so macro parens no longer reach here).
  const std::size_t eq = stmt.find('=');
  const std::string lhs = eq == std::string::npos ? stmt : stmt.substr(0, eq);
  if (lhs.find('(') != std::string::npos) return;
  if (contains_word(stmt, "atomic") || contains_word(stmt, "atomic_bool") ||
      contains_word(stmt, "condition_variable") ||
      contains_word(stmt, "condition_variable_any")) {
    return;
  }
  if (starts_with(stmt, "const ") || starts_with(stmt, "constexpr ") ||
      starts_with(stmt, "mutable const ")) {
    return;
  }
  if (lhs.find('&') != std::string::npos) return;  // bound at construction
  std::size_t end = lhs.size();
  while (end > 0 && !is_word_char(lhs[end - 1])) --end;
  std::size_t begin = end;
  while (begin > 0 && is_word_char(lhs[begin - 1])) --begin;
  if (end == begin) return;
  level.candidates.push_back({lhs.substr(begin, end - begin), line});
}

void scan_guarded_member(const std::string& relpath,
                         const std::string& stripped,
                         const AllowMap& allows, std::vector<Finding>& out) {
  std::vector<GuardedScanLevel> stack(1);  // sentinel: file scope
  std::size_t line = 1;
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    const char c = stripped[i];
    GuardedScanLevel& top = stack.back();
    if (c == '\n') ++line;
    if (c == '{') {
      GuardedScanLevel next;
      const std::string decl = normalize_ws(top.stmt);
      if (!contains_word(decl, "enum") &&
          (contains_word(decl, "struct") || contains_word(decl, "class") ||
           contains_word(decl, "union"))) {
        next.is_class = true;
        next.class_name = class_name_of(decl);
      }
      next.stmt_line = line;
      stack.push_back(std::move(next));
      continue;
    }
    if (c == '}') {
      if (stack.size() > 1) {
        GuardedScanLevel closed = std::move(stack.back());
        stack.pop_back();
        if (closed.is_class && closed.has_mutex) {
          for (const auto& cand : closed.candidates) {
            if (cand.line >= 1 && allows.allows(cand.line - 1, "guarded-member")) {
              continue;
            }
            out.push_back(
                {relpath, cand.line, "guarded-member",
                 closed.class_name + "." + cand.name,
                 "member '" + cand.name + "' of mutex-owning class '" +
                     closed.class_name +
                     "' has no TEGREC_GUARDED_BY annotation — guard it, "
                     "make it std::atomic/const, or justify with "
                     "// tegrec-lint: allow(guarded-member)"});
          }
        }
        // Lookahead: '}' directly followed by ';' closes a type or a
        // brace-initialised member — the outer statement survives (and is
        // skipped as brace-bearing); anything else was a function body.
        std::size_t p = i + 1;
        while (p < stripped.size() &&
               (stripped[p] == ' ' || stripped[p] == '\t' ||
                stripped[p] == '\n')) {
          ++p;
        }
        GuardedScanLevel& outer = stack.back();
        if (p < stripped.size() && stripped[p] == ';') {
          outer.stmt_had_braces = true;
        } else {
          outer.stmt.clear();
          outer.stmt_had_braces = false;
        }
      }
      continue;
    }
    if (c == ';') {
      process_member_statement(top);
      top.stmt_line = line;
      continue;
    }
    if (top.stmt.empty() && (c == ' ' || c == '\t' || c == '\n')) {
      top.stmt_line = line;
      continue;
    }
    if (top.stmt.empty()) top.stmt_line = line;
    top.stmt += c == '\n' ? ' ' : c;
    if (c == ':') {
      // Access labels end a statement without ';'; keeping them glued to
      // the next member would misattribute its declaration line.
      const std::string flat = normalize_ws(top.stmt);
      if (flat == "public:" || flat == "private:" || flat == "protected:") {
        top.stmt.clear();
        top.stmt_had_braces = false;
      }
    }
  }
}

// ------------------------------------------------ annotation-drift scanning

void scan_annotation_drift(const std::string& relpath,
                           const std::string& stripped,
                           const AllowMap& allows,
                           std::vector<Finding>& out) {
  if (allows.allows(0, "annotation-drift")) return;
  if (!mentions_mutex_type(stripped)) return;
  if (stripped.find("TEGREC_") != std::string::npos) return;
  out.push_back(
      {relpath, 1, "annotation-drift", "mutex-without-annotations",
       "header names a mutex but carries no TEGREC_* thread-safety "
       "annotation — the class drifted out of the compile-time "
       "lock-discipline net (see docs/static_analysis.md); annotate its "
       "guarded members or justify with "
       "// tegrec-lint: allow(annotation-drift)"});
}

void scan_using_namespace(const std::string& relpath,
                          const std::vector<std::string>& stripped_lines,
                          const AllowMap& allows, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
    const std::string& line = stripped_lines[i];
    if (line.empty() || allows.allows(i, "using-namespace")) continue;
    if (contains_word(line, "using") &&
        line.find("using namespace") != std::string::npos) {
      out.push_back({relpath, i + 1, "using-namespace", normalize_ws(line),
                     "'using namespace' in a header leaks into every "
                     "includer; qualify names instead"});
    }
  }
}

void scan_include_guard(const std::string& relpath,
                        const std::string& stripped,
                        const AllowMap& allows, std::vector<Finding>& out) {
  if (allows.allows(0, "include-guard")) return;
  if (stripped.find("#pragma once") != std::string::npos) return;
  const bool has_ifndef_guard =
      stripped.find("#ifndef") != std::string::npos &&
      stripped.find("#define") != std::string::npos;
  out.push_back({relpath, 1, "include-guard", "missing-pragma-once",
                 has_ifndef_guard
                     ? "header uses an #ifndef guard; the project standard "
                       "is #pragma once"
                     : "header has no include guard; add #pragma once"});
}

}  // namespace

// ----------------------------------------------------------------- public

std::string baseline_key(const Finding& finding) {
  return finding.rule + "|" + finding.file + "|" + finding.detail;
}

std::set<std::string> parse_baseline(const std::string& content) {
  std::set<std::string> keys;
  std::istringstream is(content);
  std::string line;
  while (std::getline(is, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    std::size_t begin = line.find_first_not_of(" \t");
    if (begin == std::string::npos || line[begin] == '#') continue;
    keys.insert(line.substr(begin));
  }
  return keys;
}

std::string strip_comments_and_strings(const std::string& content) {
  std::string out;
  out.reserve(content.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !is_word_char(content[i - 1]))) {
          // Raw string: find the delimiter up to '('.
          std::size_t p = i + 2;
          raw_delim.clear();
          while (p < content.size() && content[p] != '(') {
            raw_delim += content[p++];
          }
          state = State::kRawString;
          out += "R\"";
          for (std::size_t k = 0; k < raw_delim.size(); ++k) out += ' ';
          if (p < content.size()) out += ' ';  // the '('
          i = p;
        } else if (c == '"') {
          state = State::kString;
          out += '"';
        } else if (c == '\'' &&
                   (i == 0 || !std::isdigit(static_cast<unsigned char>(
                                  content[i - 1])))) {
          // Skip digit separators (1'000'000) — those stay code.
          state = State::kChar;
          out += '\'';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out += "  ";
          ++i;
          if (next == '\n') out.back() = '\n';
        } else if (c == '"') {
          state = State::kCode;
          out += '"';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out += '\'';
        } else {
          out += ' ';
        }
        break;
      case State::kRawString: {
        const std::string close = ")" + raw_delim + "\"";
        if (c == ')' && content.compare(i, close.size(), close) == 0) {
          state = State::kCode;
          for (std::size_t k = 0; k < close.size(); ++k) out += ' ';
          i += close.size() - 1;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::vector<Finding> scan_source(const std::string& relpath,
                                 const std::string& content,
                                 const Options& options) {
  std::vector<Finding> findings;
  const std::string stripped = strip_comments_and_strings(content);
  const std::vector<std::string> raw_lines = split_lines_keep(content);
  const std::vector<std::string> stripped_lines = split_lines_keep(stripped);
  const AllowMap allows(raw_lines, stripped_lines);

  const bool is_header = ends_with(relpath, ".hpp") || ends_with(relpath, ".h");
  const bool in_determinism_scope =
      std::any_of(options.determinism_dirs.begin(),
                  options.determinism_dirs.end(),
                  [&](const std::string& d) { return starts_with(relpath, d); });

  const bool in_raw_publish_scope =
      std::any_of(options.raw_publish_dirs.begin(),
                  options.raw_publish_dirs.end(),
                  [&](const std::string& d) { return starts_with(relpath, d); });

  const bool in_concurrency_scope =
      std::any_of(options.concurrency_dirs.begin(),
                  options.concurrency_dirs.end(),
                  [&](const std::string& d) { return starts_with(relpath, d); });
  const bool lock_discipline_exempt =
      std::any_of(options.lock_discipline_exempt.begin(),
                  options.lock_discipline_exempt.end(),
                  [&](const std::string& f) { return relpath == f; });

  if (in_determinism_scope) {
    scan_token_rules("determinism", kDeterminismTokens,
                     std::size(kDeterminismTokens), relpath, stripped_lines,
                     allows, findings);
  }
  if (in_raw_publish_scope) {
    scan_token_rules("raw-publish", kRawPublishTokens,
                     std::size(kRawPublishTokens), relpath, stripped_lines,
                     allows, findings);
  }
  scan_float_eq(relpath, stripped_lines, allows, findings);
  scan_float_tol(relpath, stripped_lines, allows, findings);
  scan_token_rules("api-io", kApiIoTokens, std::size(kApiIoTokens), relpath,
                   stripped_lines, allows, findings);
  if (!lock_discipline_exempt) {
    scan_lock_discipline(relpath, stripped_lines, allows, findings);
  }
  if (in_concurrency_scope) {
    scan_guarded_member(relpath, stripped, allows, findings);
    if (is_header) {
      scan_annotation_drift(relpath, stripped, allows, findings);
    }
  }
  if (is_header) {
    scan_using_namespace(relpath, stripped_lines, allows, findings);
    scan_include_guard(relpath, stripped, allows, findings);
  }
  return findings;
}

// --------------------------------------------------------------- repo run

namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw std::runtime_error("tegrec_lint: cannot read " + path.string());
  }
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return buffer.str();
}

}  // namespace

RepoReport run_repo_lint(const std::string& root,
                         const std::set<std::string>& baseline,
                         const Options& options) {
  namespace fs = std::filesystem;
  RepoReport report;
  std::vector<Finding> all;

  const fs::path root_path(root);
  const fs::path src = root_path / "src";
  if (!fs::exists(src)) {
    throw std::runtime_error("tegrec_lint: no src/ under root " + root);
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".cpp" || ext == ".hpp" || ext == ".h") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    const std::string relpath =
        fs::path(path).lexically_relative(root_path).generic_string();
    const std::vector<Finding> found =
        scan_source(relpath, read_file(path), options);
    all.insert(all.end(), found.begin(), found.end());
    ++report.files_scanned;
  }

  std::set<std::string> used_baseline;
  for (const Finding& f : all) {
    const std::string key = baseline_key(f);
    if (baseline.count(key) != 0) {
      report.baselined.push_back(f);
      used_baseline.insert(key);
    } else {
      report.findings.push_back(f);
    }
  }
  for (const std::string& key : baseline) {
    if (used_baseline.count(key) == 0) report.stale_baseline.insert(key);
  }
  return report;
}

}  // namespace tegrec::lint
