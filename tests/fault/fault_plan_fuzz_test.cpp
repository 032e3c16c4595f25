// FaultPlan mutation round-trip: byte-level mutations of random plan texts
// must never make parse() throw, and every text parse() accepts must print
// (to_text) in a form that parses back and prints identically.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "util/rng.hpp"

namespace wrt::fault {
namespace {

/// Bytes that keep mutants close to the grammar: numbers, signs, the
/// separators and the line structure.
constexpr char kAlphabet[] = "0123456789.-+=|@# \n";

std::vector<std::string> corpus() {
  std::vector<std::string> texts;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    FaultPlan::RandomOptions options;
    options.parked = {12, 13, 14};
    options.events = 10;
    options.flap_events = 2;
    texts.push_back(FaultPlan::random(seed, options).to_text());
  }
  texts.push_back(
      "@0 mark storm begins\n"
      "@10 link-degrade 1 2 avg=0 dwell=5 bad=1\n"
      "@20 drop-control join-ack\n"
      "@30 force-switch 4\n"
      "@40 clear-switch 4\n");
  return texts;
}

std::string mutate(std::string text, util::RngStream& rng) {
  const auto edits = rng.uniform_int(1, 4);
  for (std::int64_t e = 0; e < edits; ++e) {
    const char byte = kAlphabet[rng.uniform_int(sizeof(kAlphabet) - 1)];
    const auto at = static_cast<std::size_t>(rng.uniform_int(text.size() + 1));
    switch (rng.uniform_int(3)) {
      case 0:
        if (at < text.size()) text[at] = byte;
        break;
      case 1:
        if (at < text.size()) text.erase(at, 1);
        break;
      default:
        text.insert(at, 1, byte);
        break;
    }
  }
  return text;
}

TEST(FaultPlanFuzz, MutatedTextsRoundTrip) {
  const std::vector<std::string> texts = corpus();
  util::RngStream rng(20240601, 0xF022);
  std::size_t accepted = 0;
  std::size_t failures = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string mutant =
        mutate(texts[rng.uniform_int(texts.size())], rng);
    util::Result<FaultPlan> plan = util::Error::invalid_argument("unset");
    try {
      plan = FaultPlan::parse(mutant);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "parse threw " << e.what() << " on:\n" << mutant;
      continue;
    }
    if (!plan.ok()) continue;
    ++accepted;
    const std::string text = plan.value().to_text();
    const auto reparsed = FaultPlan::parse(text);
    if (!reparsed.ok() || reparsed.value().to_text() != text) {
      // Report the first few; the count says how widespread it is.
      if (++failures <= 3) {
        ADD_FAILURE() << "no round trip for mutant:\n"
                      << mutant << "\nprinted as:\n"
                      << text << "\n"
                      << (reparsed.ok() ? reparsed.value().to_text()
                                        : reparsed.error().message);
      }
    }
  }
  EXPECT_EQ(failures, 0u);
  // The mutants must exercise the accepting path, not only the rejections.
  EXPECT_GT(accepted, 1000u);
}

}  // namespace
}  // namespace wrt::fault
