// Command-line mutation round-trip: every mutated argv must parse without
// throwing, answer every query, and print back (as --name=value tokens) into
// an Args with the same flags, values and malformed numeric flags.  A
// numeric getter on a malformed flag must return its fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/args.hpp"
#include "util/rng.hpp"

namespace wrt::util {
namespace {

Args parse(const std::vector<std::string>& tokens) {
  std::vector<char*> argv{const_cast<char*>("prog")};
  for (const std::string& token : tokens) {
    argv.push_back(const_cast<char*>(token.c_str()));
  }
  return Args(static_cast<int>(argv.size()), argv.data());
}

/// Characters that keep mutants close to real command lines.
constexpr char kAlphabet[] = "-=,.+e0123456789nxs ";

std::vector<std::vector<std::string>> corpus() {
  return {{"--n", "16"},
          {"--rate=0.25", "--csv"},
          {"--sizes", "4,8,16", "--seed=7"},
          {"stray", "--x", "--y", "-3", "--z="},
          {"--json-dir=out", "--smoke", "--seeds", "1,2,,3"}};
}

std::vector<std::string> mutate(std::vector<std::string> tokens,
                                RngStream& rng) {
  const auto edits = rng.uniform_int(1, 4);
  for (std::int64_t e = 0; e < edits; ++e) {
    const auto pick = [&] {
      return static_cast<std::size_t>(rng.uniform_int(tokens.size()));
    };
    const char byte = kAlphabet[rng.uniform_int(sizeof(kAlphabet) - 1)];
    switch (rng.uniform_int(std::uint64_t{5})) {
      case 0:
        if (!tokens.empty()) {
          tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(pick()));
        }
        break;
      case 1:
        if (!tokens.empty()) tokens.push_back(tokens[pick()]);
        break;
      case 2:
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(
                                           rng.uniform_int(tokens.size() + 1)),
                      std::string(1, byte));
        break;
      default: {
        if (tokens.empty()) break;
        std::string& token = tokens[pick()];
        const auto at =
            static_cast<std::size_t>(rng.uniform_int(token.size() + 1));
        if (rng.bernoulli(0.5) && at < token.size()) {
          token.erase(at, 1);
        } else {
          token.insert(at, 1, byte);
        }
        break;
      }
    }
  }
  return tokens;
}

TEST(ArgsFuzz, MutatedCommandLinesRoundTrip) {
  const auto lines = corpus();
  RngStream rng(20240601, 0xA765);
  std::size_t failures = 0;
  std::size_t flags_seen = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::vector<std::string> mutant =
        mutate(lines[rng.uniform_int(lines.size())], rng);
    try {
      const Args args = parse(mutant);
      // Nothing queried yet, so every parsed flag is "unknown".
      const std::vector<std::string> names = args.unknown_flags();
      flags_seen += names.size();
      std::vector<std::string> printed;
      bool fallbacks_ok = true;
      for (const std::string& name : names) {
        const std::string value = args.get_string(name, "<unset>");
        (void)args.has(name);
        (void)args.get_double(name, 0.0);
        (void)args.get_int_list(name, {});
        // get_int fell back on a non-empty value: the flag is reported.
        if (!value.empty() && value != "-77" &&
            args.get_int(name, -77) == -77) {
          const auto malformed = args.malformed_flags();
          fallbacks_ok = fallbacks_ok &&
                         std::find(malformed.begin(), malformed.end(),
                                   name) != malformed.end();
        }
        printed.push_back("--" + name + "=" + value);
      }
      EXPECT_TRUE(args.unknown_flags().empty());
      EXPECT_TRUE(fallbacks_ok);
      const Args again = parse(printed);
      bool same = again.unknown_flags() == names;
      for (const std::string& name : names) {
        same = same && again.get_string(name, "<unset>") ==
                           args.get_string(name, "<unset>");
        (void)again.get_int(name, 0);
        (void)again.get_double(name, 0.0);
        (void)again.get_int_list(name, {});
      }
      same = same && again.malformed_flags() == args.malformed_flags();
      if (!same && ++failures <= 3) {
        std::string shown;
        for (const std::string& token : mutant) shown += " [" + token + "]";
        ADD_FAILURE() << "no round trip for" << shown;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "Args threw " << e.what();
    }
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_GT(flags_seen, 5000u);
}

}  // namespace
}  // namespace wrt::util
