// Self-test for wrt_lint: runs the real binary over the fixture tree in
// tests/lint/fixtures/ and asserts the exact findings.  Every rule has one
// known-bad fixture (must fire, with a known count and line) and one
// suppressed fixture (a justified wrt-lint-allow must silence it); because
// the expected set is exact, a fixture that fires twice, a rule that stops
// firing, or a suppression that stops working all fail loudly.
//
// WRT_LINT_BIN and WRT_LINT_FIXTURES are injected by tests/CMakeLists.txt.
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// Runs `WRT_LINT_BIN <args>` capturing stdout+stderr.
RunResult run_lint(const std::string& args) {
  const std::string command =
      std::string(WRT_LINT_BIN) + " " + args + " 2>&1";
  RunResult result;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> chunk{};
  std::size_t got = 0;
  while ((got = std::fread(chunk.data(), 1, chunk.size(), pipe)) > 0) {
    result.output.append(chunk.data(), got);
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string fixture(const std::string& relative) {
  return std::string(WRT_LINT_FIXTURES) + "/" + relative;
}

/// Reduces a findings line to "relative-path:line:rule" (paths are printed
/// absolute because the fixtures dir is passed absolute).
std::multiset<std::string> parse_findings(const std::string& output) {
  const std::string prefix = std::string(WRT_LINT_FIXTURES) + "/";
  std::multiset<std::string> findings;
  std::istringstream stream(output);
  std::string line;
  while (std::getline(stream, line)) {
    const std::size_t at = line.find(prefix);
    if (at != 0) continue;  // summary / non-finding line
    const std::size_t bracket = line.find('[');
    const std::size_t close = line.find(']');
    if (bracket == std::string::npos || close == std::string::npos) continue;
    std::string location = line.substr(prefix.size(),
                                       line.find(": [") - prefix.size());
    findings.insert(location + ":" +
                    line.substr(bracket + 1, close - bracket - 1));
  }
  return findings;
}

TEST(LintSelftest, EveryRuleFiresOnItsBadFixtureAndOnlyThere) {
  const RunResult result = run_lint(std::string(WRT_LINT_FIXTURES));
  EXPECT_EQ(result.exit_code, 1) << result.output;

  const std::multiset<std::string> expected = {
      "hot-path-assoc/bad/wrtring/station.hpp:4:hot-path-assoc",
      "hot-path-assoc/bad/wrtring/station.hpp:11:hot-path-assoc",
      "by-value-frame-param/bad.hpp:7:by-value-frame-param",
      "stale-include/bad.cpp:2:stale-include",
      "missing-nodiscard/bad.hpp:6:missing-nodiscard",
      "kernel-aos-access/bad/wrtring/soa_kernel.cpp:9:kernel-aos-access",
      "mutable-global-state/bad.cpp:4:mutable-global-state",
      "mutable-global-state/bad.cpp:6:mutable-global-state",
      "cross-shard-handle/bad/wrtring/peers.hpp:7:cross-shard-handle",
      "cross-shard-handle/bad/wrtring/mailbox.hpp:7:cross-shard-handle",
      "unguarded-shared-field/bad.hpp:9:unguarded-shared-field",
      "recovery-side-effect/bad/wrtring/watchdog.cpp:11:recovery-side-effect",
      "recovery-side-effect/bad/wrtring/watchdog.cpp:13:recovery-side-effect",
      "one-event-sink/bad/wrtring/engine.cpp:17:one-event-sink",
      "one-event-sink/bad/wrtring/engine.cpp:18:one-event-sink",
      "lint-suppression/bad.cpp:3:lint-suppression",
  };
  EXPECT_EQ(parse_findings(result.output), expected) << result.output;
}

TEST(LintSelftest, SuppressedFixturesAloneAreClean) {
  // The suppressed halves on their own must exit 0: proves each
  // wrt-lint-allow actually lands on its finding.
  const std::string roots =
      fixture("hot-path-assoc/suppressed") + " " +
      fixture("by-value-frame-param/suppressed.hpp") + " " +
      fixture("stale-include/suppressed.cpp") + " " +
      fixture("missing-nodiscard/suppressed.hpp") + " " +
      fixture("kernel-aos-access/suppressed") + " " +
      fixture("mutable-global-state/suppressed.cpp") + " " +
      fixture("cross-shard-handle/suppressed") + " " +
      fixture("unguarded-shared-field/suppressed.hpp") + " " +
      fixture("recovery-side-effect/suppressed") + " " +
      fixture("one-event-sink/suppressed");
  const RunResult result = run_lint(roots);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("clean"), std::string::npos) << result.output;
}

TEST(LintSelftest, ListSuppressionsInventoriesJustifications) {
  const RunResult result =
      run_lint("--list-suppressions " + std::string(WRT_LINT_FIXTURES));
  // The unknown-rule fixture must make the audit fail...
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("unknown rule 'no-such-rule'"),
            std::string::npos)
      << result.output;
  // ...while the 12 legitimate suppressions are inventoried with their
  // scope tag and justification text.
  EXPECT_NE(result.output.find("12 active suppression(s)"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find(
                "[file] hot-path-assoc: fixture — cold lookup table"),
            std::string::npos)
      << result.output;
  EXPECT_NE(
      result.output.find(
          "[line] cross-shard-handle: fixture — handle to the table's own"),
      std::string::npos)
      << result.output;
}

TEST(LintSelftest, ListSuppressionsCleanTreeExitsZero) {
  const RunResult result = run_lint("--list-suppressions " +
                                    fixture("mutable-global-state"));
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("2 active suppression(s)"), std::string::npos)
      << result.output;
}

TEST(LintSelftest, ListRulesNamesAllRules) {
  const RunResult result = run_lint("--list-rules");
  EXPECT_EQ(result.exit_code, 0);
  for (const char* rule :
       {"hot-path-assoc", "by-value-frame-param", "stale-include",
        "missing-nodiscard", "kernel-aos-access", "mutable-global-state",
        "cross-shard-handle", "unguarded-shared-field",
        "recovery-side-effect", "one-event-sink"}) {
    EXPECT_NE(result.output.find(rule), std::string::npos) << rule;
  }
}

}  // namespace
