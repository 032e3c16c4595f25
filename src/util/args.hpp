// Minimal command-line flag parsing for benches and examples.
//
// Supports `--name value`, `--name=value` and boolean `--name` forms; every
// experiment binary keeps its defaults (so `for b in bench/*; do $b; done`
// reproduces the recorded tables) while letting a user re-run any sweep
// with different sizes, seeds or horizons.
//
// Numbers are parsed as whole tokens: `--n abc` or `--rate=1.5x` is not a
// number, so the getter returns its fallback and records the flag in
// malformed_flags(), where a tool can reject it like an unknown flag.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace wrt::util {

class Args {
 public:
  Args(int argc, char** argv);

  /// True when the flag appeared (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// Base-10 integer; the fallback when absent, empty or malformed.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// Finite decimal number; the fallback when absent, empty or malformed.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       std::string fallback) const;

  /// Comma-separated integer list, e.g. --sizes 4,8,16 (empty items are
  /// skipped); the fallback when absent, empty or any item is malformed.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name, std::vector<std::int64_t> fallback) const;

  /// Flags that were passed but never queried (typo detection).
  [[nodiscard]] std::vector<std::string> unknown_flags() const;

  /// Flags whose value a numeric getter could not parse, in name order.
  [[nodiscard]] std::vector<std::string> malformed_flags() const;

 private:
  /// The value of `name` when present and non-empty, else nullptr; marks
  /// the flag queried.
  [[nodiscard]] const std::string* numeric_value(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  mutable std::set<std::string> malformed_;
};

}  // namespace wrt::util
