// wrt_lint — repo-specific static analysis for the WRT-Ring code base.
//
// Generic linters cannot know this repo's contracts, so this tool encodes
// them directly (see docs/API.md "Correctness tooling" for the rule table):
//
//   hot-path-assoc       The per-slot engine hot path is position-indexed
//                        by design (PR 1); node-based associative
//                        containers are banned from the hot-path files.
//   by-value-frame-param Packet / LinkFrame parameters must be passed by
//                        reference (or moved); silent copies on the data
//                        path are the repo's most common perf regression.
//   stale-include        A curated table of std headers whose usage is
//                        reliably greppable; flags includes with no use.
//   missing-nodiscard    Zero-argument const accessors in headers must be
//                        [[nodiscard]] — dropping an accessor result is
//                        always a bug.
//   kernel-aos-access    The per-slot passes operate on the SlotKernel's
//                        dense arrays (PR 6); `stations_[...]` access in a
//                        kernel file reintroduces the per-station object
//                        indirection the SoA refactor removed.
//   mutable-global-state Non-const namespace-scope / static-local mutable
//                        variables are banned: a federation shard must own
//                        its state, and a hidden global is cross-shard
//                        state nobody annotated.  The sanctioned globals
//                        (the MetricRegistry singleton, the log sinks)
//                        carry justified suppressions — the whitelist is
//                        the suppression list, auditable via
//                        --list-suppressions.
//   cross-shard-handle   Ring/engine code (wrtring/, tpt/) may not declare
//                        raw pointer/reference variables or fields to
//                        Engine / SlotKernel / Station: a stored handle
//                        into another shard's mutable core bypasses the
//                        epoch-synchronized gateway-message path.  Handles
//                        to *own-shard* objects get a justified
//                        suppression.  Additionally, `*Frame` structs in
//                        ring code must be pure value types (no pointer or
//                        reference members): mailbox frames cross shard
//                        boundaries by design (PR 8), so a pointer member
//                        would smuggle a handle into another shard's epoch.
//   unguarded-shared-field
//                        Types registered as shared via
//                        `// wrt-lint-shared-type(Name): <why>` (anywhere
//                        in the scanned tree) must have every field atomic,
//                        const, a lock, annotated WRT_GUARDED_BY /
//                        WRT_PT_GUARDED_BY, or itself a registered shared
//                        type — the textual complement of Clang's
//                        -Wthread-safety pass.
//   recovery-side-effect Ring recovery has exactly one decision point: the
//                        RecoveryFsm (PR 10).  Direct calls to the engine's
//                        start_recovery / start_rebuild from anywhere else
//                        in wrtring/ bypass the guard window, WTR hold-off,
//                        and request de-duplication; the FSM's own
//                        dispatch sites carry justified suppressions.
//   one-event-sink       The telemetry Journal is the engines' only record
//                        of protocol events.  In wrtring/engine.cpp and
//                        tpt/engine.cpp, a util::log call or a journal
//                        `->record(` outside the engine's journal_record
//                        helper regrows a parallel event path.
//
// Suppressions (a justification is mandatory):
//   // wrt-lint-allow(<rule>): <reason>        same line or line above
//   // wrt-lint-allow-file(<rule>): <reason>   whole file
//
// Usage: wrt_lint [--list-rules] [--list-suppressions] [dir-or-file ...]
// (default: src).  Exits 0 when clean, 1 when any finding survives
// suppression.  --list-suppressions dumps every active wrt-lint-allow with
// its justification and fails on suppressions naming a rule that no longer
// exists (stale-suppression rot).
//
// The scanner is textual by intent: it blanks comments and string literals
// and then works with regular expressions.  That keeps it dependency-free
// (no libclang in the container) and fast enough to run on every check.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string path;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct SourceFile {
  std::string path;            // repo-relative, as given
  std::string raw;             // exact file content
  std::string code;            // comments + string literals blanked
  bool is_header = false;
  // rule -> raw lines carrying a justified wrt-lint-allow for it.
  std::map<std::string, std::set<std::size_t>> suppressed_lines;
  std::set<std::string> suppressed_rules;  // file-wide
};

const std::set<std::string> kRules = {
    "hot-path-assoc",       "by-value-frame-param", "stale-include",
    "missing-nodiscard",    "kernel-aos-access",    "mutable-global-state",
    "cross-shard-handle",   "unguarded-shared-field",
    "recovery-side-effect", "one-event-sink"};

/// Active suppression, for --list-suppressions.
struct Suppression {
  std::string path;
  std::size_t line = 0;
  std::string rule;
  std::string reason;
  bool file_wide = false;
};

/// Cross-file context built in a first pass over every input file: the
/// shared-type registrations the unguarded-shared-field rule checks.
struct LintContext {
  std::set<std::string> shared_types;
  std::vector<Suppression> suppressions;
};

// Files whose per-slot code must stay free of associative lookups.
const std::vector<std::string> kHotPathFiles = {
    "wrtring/engine.hpp", "wrtring/engine.cpp", "wrtring/station.hpp",
    "wrtring/station.cpp", "traffic/traffic.hpp", "traffic/traffic.cpp",
    "traffic/arrival_schedule.hpp", "ring/frame.hpp", "ring/frame.cpp"};

// Files implementing the slot-kernel passes: all per-station state must be
// reached through the SlotKernel arrays, never a station-object vector.
const std::vector<std::string> kKernelFiles = {
    "wrtring/engine.cpp", "wrtring/soa_kernel.hpp", "wrtring/soa_kernel.cpp"};

// Engine files whose protocol events go to the journal and nowhere else.
const std::vector<std::string> kEventSinkFiles = {"wrtring/engine.cpp",
                                                  "tpt/engine.cpp"};

// stale-include table: header -> regex proving it is used.  Only headers
// whose entire API is reliably greppable belong here.
const std::vector<std::pair<std::string, std::string>> kIncludeUsage = {
    {"map", R"(std::(multi)?map\s*<)"},
    {"set", R"(std::(multi)?set\s*<)"},
    {"unordered_map", R"(std::unordered_(multi)?map\s*<)"},
    {"unordered_set", R"(std::unordered_(multi)?set\s*<)"},
    {"deque", R"(std::deque\s*<)"},
    {"queue", R"(std::(priority_)?queue\s*<)"},
    {"list", R"(std::(forward_)?list\s*<)"},
    {"optional",
     R"(std::optional|std::nullopt|std::make_optional|std::in_place)"},
    {"functional",
     R"(std::function\s*<|std::bind|std::invoke|std::ref\b|std::cref\b|)"
     R"(std::hash\s*<|std::plus|std::minus|std::less|std::greater)"},
    {"memory",
     R"(std::unique_ptr|std::shared_ptr|std::weak_ptr|std::make_unique|)"
     R"(std::make_shared|std::addressof|std::pmr)"},
    {"sstream", R"(std::[io]?stringstream)"},
};

std::size_t line_of(const std::string& text, std::size_t offset) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() +
                            static_cast<std::ptrdiff_t>(offset), '\n'));
}

/// Blanks //- and /* */-comments plus string and char literals with spaces
/// (newlines preserved so offsets keep mapping to the same lines).
std::string strip_comments_and_strings(const std::string& raw) {
  std::string out = raw;
  enum class State { kCode, kLine, kBlock, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            if (i + 1 < out.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < out.size()) out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

void parse_suppressions(SourceFile& file, LintContext& context,
                        std::vector<Finding>& findings) {
  // Rule names start with a letter, so the regex cannot match its own
  // source text (where "-file(" follows "allow") when tools/ lints itself.
  static const std::regex kAllow(
      R"(wrt-lint-allow(-file)?\(([a-z][a-z0-9-]*)\)\s*:?\s*(.*))");
  std::istringstream stream(file.raw);
  std::string line;
  for (std::size_t number = 1; std::getline(stream, line); ++number) {
    std::smatch match;
    if (!std::regex_search(line, match, kAllow)) continue;
    const bool file_wide = match[1].matched;
    const std::string rule = match[2].str();
    const std::string reason = match[3].str();
    if (kRules.find(rule) == kRules.end()) {
      findings.push_back({file.path, number, "lint-suppression",
                          "suppression names unknown rule '" + rule + "'"});
      continue;
    }
    if (reason.find_first_not_of(" \t") == std::string::npos) {
      findings.push_back({file.path, number, "lint-suppression",
                          "suppression for '" + rule +
                              "' lacks a justification"});
      continue;
    }
    context.suppressions.push_back({file.path, number, rule, reason,
                                    file_wide});
    if (file_wide) {
      file.suppressed_rules.insert(rule);
    } else {
      // Covers the annotated line and the one below it.
      file.suppressed_lines[rule].insert(number);
      file.suppressed_lines[rule].insert(number + 1);
    }
  }
}

/// Collects `// wrt-lint-shared-type(Name)` registrations: the classes the
/// unguarded-shared-field rule audits, declared next to their definition so
/// the shared-type list lives with the code it describes.
void parse_shared_types(const SourceFile& file, LintContext& context) {
  static const std::regex kSharedType(R"(wrt-lint-shared-type\((\w+)\))");
  for (auto it = std::sregex_iterator(file.raw.begin(), file.raw.end(),
                                      kSharedType);
       it != std::sregex_iterator(); ++it) {
    context.shared_types.insert((*it)[1].str());
  }
}

bool suppressed(const SourceFile& file, const std::string& rule,
                std::size_t line) {
  if (file.suppressed_rules.count(rule) != 0) return true;
  const auto it = file.suppressed_lines.find(rule);
  return it != file.suppressed_lines.end() && it->second.count(line) != 0;
}

void report(const SourceFile& file, const std::string& rule,
            std::size_t line, const std::string& message,
            std::vector<Finding>& findings) {
  if (!suppressed(file, rule, line)) {
    findings.push_back({file.path, line, rule, message});
  }
}

bool ends_with_any(const std::string& path,
                   const std::vector<std::string>& suffixes) {
  for (const std::string& suffix : suffixes) {
    if (path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return true;
    }
  }
  return false;
}

/// Offset of the bracket closing the one at `open` (same kind), or npos.
std::size_t matching_close(const std::string& code, std::size_t open) {
  const char opener = code[open];
  const char closer = opener == '(' ? ')' : '}';
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == opener) ++depth;
    if (code[i] == closer && --depth == 0) return i;
  }
  return std::string::npos;
}

void rule_hot_path_assoc(const SourceFile& file,
                         std::vector<Finding>& findings) {
  if (!ends_with_any(file.path, kHotPathFiles)) return;
  static const std::regex kAssoc(
      R"((std::(unordered_)?(multi)?(map|set)\s*<)|(#\s*include\s*<(map|set|unordered_map|unordered_set)>))");
  for (auto it = std::sregex_iterator(file.code.begin(), file.code.end(),
                                      kAssoc);
       it != std::sregex_iterator(); ++it) {
    report(file, "hot-path-assoc",
           line_of(file.code, static_cast<std::size_t>(it->position())),
           "associative container '" + it->str() +
               "' in a hot-path file; use util::FlatMap, a dense "
               "position-indexed vector, or a sorted vector",
           findings);
  }
}

void rule_by_value_frame_param(const SourceFile& file,
                               std::vector<Finding>& findings) {
  static const std::regex kByValue(
      R"([(,]\s*(const\s+)?((\w+::)*)(Packet|LinkFrame)\s+(\w+)\s*[,)])");
  for (auto it = std::sregex_iterator(file.code.begin(), file.code.end(),
                                      kByValue);
       it != std::sregex_iterator(); ++it) {
    const std::smatch& match = *it;
    report(file, "by-value-frame-param",
           line_of(file.code, static_cast<std::size_t>(match.position())),
           "parameter '" + match[5].str() + "' takes " + match[4].str() +
               " by value; pass by (const) reference or rvalue reference",
           findings);
  }
}

void rule_stale_include(const SourceFile& file,
                        std::vector<Finding>& findings) {
  for (const auto& [header, usage] : kIncludeUsage) {
    const std::regex include_re("#\\s*include\\s*<" + header + ">");
    std::smatch include_match;
    if (!std::regex_search(file.code, include_match, include_re)) continue;
    if (std::regex_search(file.code, std::regex(usage))) continue;
    report(file, "stale-include",
           line_of(file.code,
                   static_cast<std::size_t>(include_match.position())),
           "<" + header + "> is included but nothing from it is used",
           findings);
  }
}

void rule_missing_nodiscard(const SourceFile& file,
                            std::vector<Finding>& findings) {
  if (!file.is_header) return;
  static const std::regex kConstAccessor(R"(\(\s*\)\s*const\b[^;{}]*[;{])");
  const std::string& code = file.code;
  for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                      kConstAccessor);
       it != std::sregex_iterator(); ++it) {
    const auto open = static_cast<std::size_t>(it->position());
    // Back up to the start of the declaration (past the previous ';', '{'
    // or '}') to see the attributes and the return type.
    std::size_t start = code.find_last_of(";{}", open);
    start = start == std::string::npos ? 0 : start + 1;
    std::string decl = code.substr(start, open - start);
    // Drop a leading access specifier left in range.
    for (const char* spec : {"public:", "private:", "protected:"}) {
      const std::size_t at = decl.rfind(spec);
      if (at != std::string::npos) {
        decl = decl.substr(at + std::string(spec).size());
      }
    }
    if (decl.find("[[nodiscard]]") != std::string::npos) continue;
    if (decl.find("operator") != std::string::npos) continue;
    if (decl.find("friend") != std::string::npos) continue;
    if (decl.find("~") != std::string::npos) continue;
    // Name = last identifier before '('; everything before is the return
    // type.  A void return has nothing to discard.
    static const std::regex kName(R"((\w+)\s*$)");
    std::smatch name_match;
    if (!std::regex_search(decl, name_match, kName)) continue;
    const std::string name = name_match[1].str();
    const std::string return_part =
        decl.substr(0, static_cast<std::size_t>(name_match.position()));
    if (std::regex_search(return_part, std::regex(R"(\bvoid\b(?!\s*\*))"))) {
      continue;
    }
    if (return_part.find_first_not_of(" \t\n") == std::string::npos) {
      continue;  // constructor-like, nothing to discard
    }
    report(file, "missing-nodiscard", line_of(code, open),
           "zero-argument const accessor '" + name +
               "()' lacks [[nodiscard]]",
           findings);
  }
}

void rule_kernel_aos_access(const SourceFile& file,
                            std::vector<Finding>& findings) {
  if (!ends_with_any(file.path, kKernelFiles)) return;
  static const std::regex kAosAccess(R"(\bstations_\s*\[)");
  for (auto it = std::sregex_iterator(file.code.begin(), file.code.end(),
                                      kAosAccess);
       it != std::sregex_iterator(); ++it) {
    report(file, "kernel-aos-access",
           line_of(file.code, static_cast<std::size_t>(it->position())),
           "per-station object indexing 'stations_[...]' in a kernel file; "
           "go through the SlotKernel arrays (or a Station view) instead",
           findings);
  }
}

/// recovery-side-effect: ring recovery decisions are owned by RecoveryFsm
/// (PR 10) — a direct start_recovery / start_rebuild call anywhere else in
/// wrtring/ skips the guard window, the WTR hold-off, and the request
/// de-duplication the FSM provides.  Declarations and the Engine method
/// definitions themselves (segments led by `void`) are not call sites; the
/// FSM's dispatch lines carry justified suppressions.  tpt/ is out of
/// scope: TptEngine::start_rebuild is a different, unrelated method.
void rule_recovery_side_effect(const SourceFile& file,
                               std::vector<Finding>& findings) {
  if (file.path.find("wrtring/") == std::string::npos) return;
  static const std::regex kCall(R"(\b(start_recovery|start_rebuild)\s*\()");
  const std::string& code = file.code;
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kCall);
       it != std::sregex_iterator(); ++it) {
    const auto at = static_cast<std::size_t>(it->position());
    // The statement segment before the name tells call from definition:
    // `void Engine::start_rebuild() {` / `void start_rebuild();` lead with
    // the return type, a call site never does.
    std::size_t start = code.find_last_of(";{}", at);
    start = start == std::string::npos ? 0 : start + 1;
    const std::string before = code.substr(start, at - start);
    if (std::regex_search(before, std::regex(R"(\bvoid\s*$|\bvoid\s+Engine\s*::\s*$)"))) {
      continue;
    }
    report(file, "recovery-side-effect", line_of(code, at),
           "direct '" + (*it)[1].str() +
               "' call outside RecoveryFsm — recovery decisions must go "
               "through the FSM (guard/WTR/de-dup); justify a suppression "
               "only for the FSM's own dispatch",
           findings);
  }
}

/// one-event-sink: each protocol moment is one journal_record statement.  A
/// log line or a direct journal append in the engine files is a second,
/// unsynchronised event path; the helper's own body is the one sanctioned
/// `->record(` call.
void rule_one_event_sink(const SourceFile& file,
                         std::vector<Finding>& findings) {
  if (!ends_with_any(file.path, kEventSinkFiles)) return;
  const std::string& code = file.code;
  // Bodies of journal_record definitions: the parameter list is followed
  // (past qualifiers) by '{' rather than ';' or an argument-list close.
  std::vector<std::pair<std::size_t, std::size_t>> helper_bodies;
  static const std::regex kHelper(R"(\bjournal_record\s*\()");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kHelper);
       it != std::sregex_iterator(); ++it) {
    const std::size_t open = static_cast<std::size_t>(it->position()) +
                             static_cast<std::size_t>(it->length()) - 1;
    const std::size_t close = matching_close(code, open);
    if (close == std::string::npos) continue;
    const std::size_t body = code.find_first_of("{;,)", close + 1);
    if (body == std::string::npos || code[body] != '{') continue;
    helper_bodies.emplace_back(body, matching_close(code, body));
  }
  static const std::regex kSink(R"(\butil\s*::\s*log\s*\(|->\s*record\s*\()");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kSink);
       it != std::sregex_iterator(); ++it) {
    const auto at = static_cast<std::size_t>(it->position());
    const bool in_helper = std::any_of(
        helper_bodies.begin(), helper_bodies.end(),
        [at](const auto& body) { return at > body.first && at < body.second; });
    if (in_helper) continue;
    report(file, "one-event-sink", line_of(code, at),
           "'" + it->str() +
               "' in an engine file; record protocol events with one "
               "journal_record(...) statement, the engine's only event sink",
           findings);
  }
}

// --- shard-safety rules (PR 7) --------------------------------------------

/// True when the declaration segment contains any of the words that make a
/// `static`/global immutable or per-thread (and therefore shard-safe).
bool is_immutable_decl(const std::string& segment) {
  static const std::regex kImmutable(
      R"(\b(const|constexpr|constinit|thread_local)\b)");
  return std::regex_search(segment, kImmutable);
}

/// mutable-global-state, detector 1: `static` storage-duration variables at
/// any scope (static locals and static data members).  A declaration whose
/// first delimiter is '(' is a function or a direct-initialised object and
/// is skipped — parenthesised initialisers of mutable statics are rare
/// enough that the fixture covers the brace/equals forms only.
void rule_mutable_static(const SourceFile& file,
                         std::vector<Finding>& findings) {
  static const std::regex kStatic(R"(\bstatic\b)");
  const std::string& code = file.code;
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kStatic);
       it != std::sregex_iterator(); ++it) {
    const auto at = static_cast<std::size_t>(it->position());
    const std::size_t delim = code.find_first_of(";{(", at);
    if (delim == std::string::npos || code[delim] != ';') {
      if (delim == std::string::npos || code[delim] == '(') continue;
      // '{' first: brace-initialised static variable — still a static.
    }
    const std::size_t stop = std::min(delim, code.size());
    std::string segment = code.substr(at, stop - at);
    if (segment.find('(') != std::string::npos) continue;
    if (is_immutable_decl(segment)) continue;
    // The declarator name precedes any `= ...` initializer.
    const std::size_t init = segment.find('=');
    if (init != std::string::npos) segment = segment.substr(0, init);
    // Name = last identifier of the segment.
    static const std::regex kName(R"((\w+)\s*$)");
    std::smatch name;
    std::string trimmed = segment;
    const std::size_t end = trimmed.find_last_not_of(" \t\n");
    if (end != std::string::npos) trimmed = trimmed.substr(0, end + 1);
    if (!std::regex_search(trimmed, name, kName)) continue;
    if (name[1].str() == "static") continue;  // bare keyword (e.g. macros)
    report(file, "mutable-global-state", line_of(code, at),
           "mutable static '" + name[1].str() +
               "' — shards must own their state; make it const, "
               "thread_local, or justify a suppression",
           findings);
  }
}

/// mutable-global-state, detector 2: namespace-scope mutable globals.  The
/// repo writes namespace-scope declarations at column 0 (function bodies
/// and class members are indented), so the scan is line-anchored: a
/// column-0 declaration with no parentheses and no const/using/type-intro
/// keyword is a mutable global.
void rule_mutable_namespace_global(const SourceFile& file,
                                   std::vector<Finding>& findings) {
  static const std::regex kDecl(
      R"(^(?:inline\s+)?[A-Za-z_][\w:]*(?:\s*<[^;()]*>)?[\w:\s*&\[\]]*[\s*&](\w+)\s*(?:\{[^;]*\}|=[^;]*)?;)");
  static const std::regex kSkip(
      R"(^\s*(?:using|typedef|extern|template|friend|namespace|struct|class|enum|union|return|public|private|protected|#)\b)");
  std::istringstream stream(file.code);
  std::string line;
  std::size_t number = 0;
  while (std::getline(stream, line)) {
    ++number;
    if (line.empty() || std::isspace(static_cast<unsigned char>(line[0]))) {
      continue;
    }
    if (line.find('(') != std::string::npos) continue;
    if (std::regex_search(line, kSkip)) continue;
    if (is_immutable_decl(line)) continue;
    if (line.find("static") != std::string::npos) continue;  // detector 1
    std::smatch match;
    if (!std::regex_search(line, match, kDecl)) continue;
    report(file, "mutable-global-state", number,
           "mutable namespace-scope variable '" + match[1].str() +
               "' — shards must own their state; make it const, "
               "thread_local, or justify a suppression",
           findings);
  }
}

void rule_mutable_global_state(const SourceFile& file,
                               std::vector<Finding>& findings) {
  rule_mutable_static(file, findings);
  rule_mutable_namespace_global(file, findings);
}

/// cross-shard-handle applies to the ring/engine trees: a stored pointer or
/// reference to another shard's Engine/SlotKernel/Station would let one
/// worker thread reach into a second shard's mutable core.
bool is_ring_code(const std::string& path) {
  return path.find("wrtring/") != std::string::npos ||
         path.find("tpt/") != std::string::npos;
}

/// cross-shard-handle, detector 2: `*Frame` structs in ring code must be
/// pure value types.  Mailbox frames cross shard boundaries by design
/// (wrtring/mailbox.hpp), so ANY pointer or reference member — not just
/// the Engine/SlotKernel/Station trio — would hand the receiving shard a
/// live handle into the sender's mutable state.
void rule_frame_value_type(const SourceFile& file,
                           std::vector<Finding>& findings) {
  static const std::regex kFrameType(R"(\bstruct\s+(\w*Frame)\b[^;{]*\{)");
  const std::string& code = file.code;
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kFrameType);
       it != std::sregex_iterator(); ++it) {
    const std::string type = (*it)[1].str();
    const auto body_open =
        static_cast<std::size_t>(it->position() + it->length()) - 1;
    // Walk the body like the shared-field rule: depth-1 statements are the
    // members; nested braces (methods, nested types) are skipped.
    int depth = 0;
    std::string statement;
    std::size_t statement_start = body_open;
    for (std::size_t i = body_open; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '{') {
        ++depth;
        if (depth == 2) statement.clear();
        continue;
      }
      if (c == '}') {
        --depth;
        if (depth == 0) break;
        if (depth == 1) {
          statement.clear();
          statement_start = i + 1;
        }
        continue;
      }
      if (depth != 1) continue;
      if (c == ';') {
        // Members only: methods / ctors carry parentheses.  Cut the
        // initializer so a '*' inside `= a * b` cannot false-positive; the
        // declarator's pointer/reference marker sits before the name.
        if (!statement.empty() &&
            statement.find('(') == std::string::npos) {
          std::string decl = statement;
          const std::size_t cut = decl.find_first_of("={");
          if (cut != std::string::npos) decl = decl.substr(0, cut);
          static const std::regex kPointerMember(R"([*&]+\s*(\w+)\s*$)");
          std::smatch member;
          if (std::regex_search(decl, member, kPointerMember)) {
            report(file, "cross-shard-handle",
                   line_of(code, statement_start),
                   "frame type '" + type + "' has pointer/reference member '" +
                       member[1].str() +
                       "' — mailbox frames cross shards and must be pure "
                       "value types",
                   findings);
          }
        }
        statement.clear();
        continue;
      }
      if (statement.empty()) {
        if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
        statement_start = i;
      }
      statement += c;
    }
  }
}

void rule_cross_shard_handle(const SourceFile& file,
                             std::vector<Finding>& findings) {
  if (!is_ring_code(file.path)) return;
  rule_frame_value_type(file, findings);
  static const std::regex kHandle(
      R"((?:\bconst\s+)?(?:\w+::)*\b(Engine|SlotKernel|Station)\s*[*&]+\s*(\w+)\s*(?:=[^;{}()]*)?;)");
  const std::string& code = file.code;
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kHandle);
       it != std::sregex_iterator(); ++it) {
    const auto at = static_cast<std::size_t>(it->position());
    // Declaration statements only: the segment since the previous
    // ';'/'{'/'}' must not sit inside a parameter list (no parens).
    std::size_t start = code.find_last_of(";{}", at);
    start = start == std::string::npos ? 0 : start + 1;
    const std::string before = code.substr(start, at - start);
    if (before.find('(') != std::string::npos ||
        before.find(')') != std::string::npos) {
      continue;
    }
    report(file, "cross-shard-handle", line_of(code, at),
           "stored raw handle '" + (*it)[2].str() + "' to a " +
               (*it)[1].str() +
               " — inter-ring communication must use value-type gateway "
               "messages; same-shard handles need a justified suppression",
           findings);
  }
}

/// One depth-1 statement of a registered shared type's body: flag it when
/// it is a field with no visible concurrency contract.
void check_shared_field(const SourceFile& file, const std::string& type,
                        const std::string& statement, std::size_t offset,
                        const LintContext& context,
                        std::vector<Finding>& findings) {
  std::string decl = statement;
  // Access specifiers share the statement slot with the first declaration
  // after them; strip them.
  static const std::regex kAccess(R"(\b(public|private|protected)\s*:)");
  decl = std::regex_replace(decl, kAccess, "");
  const std::size_t first = decl.find_first_not_of(" \t\n");
  if (first == std::string::npos) return;
  decl = decl.substr(first);
  static const std::regex kNotAField(
      R"(^(?:using|typedef|friend|template|static_assert|struct|class|enum|union)\b)");
  if (std::regex_search(decl, kNotAField)) return;
  const bool annotated =
      decl.find("WRT_GUARDED_BY") != std::string::npos ||
      decl.find("WRT_PT_GUARDED_BY") != std::string::npos;
  std::string probe = decl;
  static const std::regex kAnnotation(R"(WRT(_PT)?_GUARDED_BY\s*\([^)]*\))");
  probe = std::regex_replace(probe, kAnnotation, "");
  if (probe.find('(') != std::string::npos) return;  // method, ctor, =default
  static const std::regex kField(R"((\w+)\s*(?:\{[^;]*\}|=[^;]*)?$)");
  std::smatch name;
  if (!std::regex_search(probe, name, kField)) return;
  if (annotated || is_immutable_decl(probe)) return;
  static const std::regex kSyncType(
      R"(atomic|Mutex|mutex|once_flag|condition_variable)");
  if (std::regex_search(probe, kSyncType)) return;
  for (const std::string& shared : context.shared_types) {
    if (probe.find(shared) != std::string::npos) return;
  }
  report(file, "unguarded-shared-field", line_of(file.code, offset),
         "field '" + name[1].str() + "' of shared type '" + type +
             "' has no concurrency annotation — make it atomic/const, "
             "guard it with WRT_GUARDED_BY, or justify a suppression",
         findings);
}

/// unguarded-shared-field: every field of a registered shared type must
/// carry a concurrency story the analyser can see.
void rule_unguarded_shared_field(const SourceFile& file,
                                 const LintContext& context,
                                 std::vector<Finding>& findings) {
  if (context.shared_types.empty()) return;
  // alignas(...) is the one paren construct legitimate in a field decl;
  // blank it (preserving offsets) so the function-vs-field test stays "has
  // parentheses".
  std::string code = file.code;
  static const std::regex kAlignas(R"(\balignas\s*\([^)]*\))");
  for (std::smatch match;
       std::regex_search(code, match, kAlignas);) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(match.length());
         ++i) {
      char& c = code[static_cast<std::size_t>(match.position()) + i];
      if (c != '\n') c = ' ';
    }
  }
  for (const std::string& type : context.shared_types) {
    const std::regex class_re("(?:class|struct)\\s+(?:[A-Za-z_]\\w*\\s+)*" +
                              type + "\\b[^;{]*\\{");
    std::smatch class_match;
    std::string::const_iterator search_from = code.cbegin();
    if (!std::regex_search(search_from, code.cend(), class_match, class_re)) {
      continue;
    }
    const auto body_open =
        static_cast<std::size_t>(class_match.position() +
                                 class_match.length()) - 1;
    // Walk the class body: statements at depth 1 are member declarations;
    // nested braces (inline method bodies, nested types) are skipped, and
    // returning to depth 1 resets the statement so a field following an
    // inline body is still seen.
    int depth = 0;
    std::string statement;
    std::size_t statement_start = body_open;
    for (std::size_t i = body_open; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '{') {
        ++depth;
        if (depth == 2) statement.clear();
        continue;
      }
      if (c == '}') {
        --depth;
        if (depth == 0) break;
        if (depth == 1) {
          statement.clear();
          statement_start = i + 1;
        }
        continue;
      }
      if (depth != 1) continue;
      if (c == ';') {
        if (!statement.empty()) {
          check_shared_field(file, type, statement, statement_start,
                             context, findings);
        }
        statement.clear();
        continue;
      }
      if (statement.empty()) {
        if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
        statement_start = i;
      }
      statement += c;
    }
  }
}

bool load(const fs::path& path, SourceFile& file, LintContext& context,
          std::vector<Finding>& findings) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "wrt_lint: cannot read " << path << '\n';
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  file.path = path.generic_string();
  file.raw = buffer.str();
  file.code = strip_comments_and_strings(file.raw);
  file.is_header = path.extension() == ".hpp" || path.extension() == ".h";
  parse_suppressions(file, context, findings);
  parse_shared_types(file, context);
  return true;
}

void collect(const fs::path& root, std::vector<fs::path>& files) {
  if (fs::is_regular_file(root)) {
    files.push_back(root);
    return;
  }
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() == ".hpp" || p.extension() == ".cpp" ||
        p.extension() == ".h") {
      files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots;
  bool list_suppressions = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const std::string& rule : kRules) std::cout << rule << '\n';
      return 0;
    }
    if (arg == "--list-suppressions") {
      list_suppressions = true;
      continue;
    }
    roots.emplace_back(arg);
  }
  if (roots.empty()) roots.emplace_back("src");

  std::vector<fs::path> files;
  for (const fs::path& root : roots) {
    if (!fs::exists(root)) {
      std::cerr << "wrt_lint: no such path: " << root << '\n';
      return 2;
    }
    collect(root, files);
  }

  // Pass 1: load everything — suppressions and shared-type registrations
  // are cross-file context the rules need before any file is judged.
  std::vector<Finding> findings;
  LintContext context;
  std::vector<SourceFile> sources(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (!load(files[i], sources[i], context, findings)) return 2;
  }

  if (list_suppressions) {
    // Audit mode: every active suppression with its justification.  The
    // unknown-rule / missing-justification findings recorded during the
    // load pass still gate, so a suppression naming a retired rule rots
    // loudly instead of silently.
    for (const Suppression& s : context.suppressions) {
      std::cout << s.path << ':' << s.line << ": ["
                << (s.file_wide ? "file" : "line") << "] " << s.rule << ": "
                << s.reason << '\n';
    }
    std::cout << "wrt_lint: " << context.suppressions.size()
              << " active suppression(s)\n";
    for (const Finding& finding : findings) {
      std::cout << finding.path << ':' << finding.line << ": ["
                << finding.rule << "] " << finding.message << '\n';
    }
    return findings.empty() ? 0 : 1;
  }

  // Pass 2: the rules.
  for (SourceFile& file : sources) {
    rule_hot_path_assoc(file, findings);
    rule_by_value_frame_param(file, findings);
    rule_stale_include(file, findings);
    rule_missing_nodiscard(file, findings);
    rule_kernel_aos_access(file, findings);
    rule_recovery_side_effect(file, findings);
    rule_one_event_sink(file, findings);
    rule_mutable_global_state(file, findings);
    rule_cross_shard_handle(file, findings);
    rule_unguarded_shared_field(file, context, findings);
  }

  for (const Finding& finding : findings) {
    std::cout << finding.path << ':' << finding.line << ": ["
              << finding.rule << "] " << finding.message << '\n';
  }
  if (findings.empty()) {
    std::cout << "wrt_lint: clean (" << files.size() << " files)\n";
    return 0;
  }
  std::cout << "wrt_lint: " << findings.size() << " finding(s) in "
            << files.size() << " files\n";
  return 1;
}
