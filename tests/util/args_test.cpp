#include "util/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace wrt::util {
namespace {

Args make_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Args(static_cast<int>(argv.size()),
              const_cast<char**>(argv.data()));
}

TEST(Args, SpaceSeparatedValue) {
  const Args args = make_args({"--n", "16"});
  EXPECT_TRUE(args.has("n"));
  EXPECT_EQ(args.get_int("n", 0), 16);
}

TEST(Args, EqualsForm) {
  const Args args = make_args({"--rate=0.25"});
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.25);
}

TEST(Args, BooleanFlag) {
  const Args args = make_args({"--csv", "--n", "4"});
  EXPECT_TRUE(args.has("csv"));
  EXPECT_EQ(args.get_int("n", 0), 4);
}

TEST(Args, FallbacksWhenAbsent) {
  const Args args = make_args({});
  EXPECT_FALSE(args.has("n"));
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("x", 1.5), 1.5);
  EXPECT_EQ(args.get_string("s", "dflt"), "dflt");
}

TEST(Args, StringValue) {
  const Args args = make_args({"--mode=fast"});
  EXPECT_EQ(args.get_string("mode", ""), "fast");
}

TEST(Args, IntList) {
  const Args args = make_args({"--sizes", "4,8,16"});
  EXPECT_EQ(args.get_int_list("sizes", {}),
            (std::vector<std::int64_t>{4, 8, 16}));
}

TEST(Args, IntListFallback) {
  const Args args = make_args({});
  EXPECT_EQ(args.get_int_list("sizes", {1, 2}),
            (std::vector<std::int64_t>{1, 2}));
}

TEST(Args, ConsecutiveFlags) {
  const Args args = make_args({"--a", "--b", "2"});
  EXPECT_TRUE(args.has("a"));
  EXPECT_EQ(args.get_int("b", 0), 2);
}

TEST(Args, UnknownFlagDetection) {
  const Args args = make_args({"--typo", "1", "--n", "2"});
  (void)args.get_int("n", 0);
  const auto unknown = args.unknown_flags();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Args, MalformedIntFallsBackAndIsReported) {
  const Args args = make_args({"--n", "abc", "--m=12x", "--k", "7"});
  EXPECT_EQ(args.get_int("n", 5), 5);
  EXPECT_EQ(args.get_int("m", 6), 6);
  EXPECT_EQ(args.get_int("k", 0), 7);
  EXPECT_EQ(args.malformed_flags(), (std::vector<std::string>{"m", "n"}));
  EXPECT_TRUE(args.unknown_flags().empty());
}

TEST(Args, MalformedDoubleFallsBackAndIsReported) {
  const Args args = make_args({"--rate=1.5x", "--p", " 0.5", "--q=inf",
                               "--r=nan", "--s=-2.5e-1"});
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.25), 0.25);
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.75), 0.75);
  EXPECT_DOUBLE_EQ(args.get_double("q", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(args.get_double("r", 2.0), 2.0);
  EXPECT_DOUBLE_EQ(args.get_double("s", 0.0), -0.25);
  EXPECT_EQ(args.malformed_flags(),
            (std::vector<std::string>{"p", "q", "r", "rate"}));
}

TEST(Args, IntOverflowIsMalformed) {
  const Args args = make_args({"--n=99999999999999999999", "--m=-12"});
  EXPECT_EQ(args.get_int("n", 3), 3);
  EXPECT_EQ(args.get_int("m", 0), -12);
  EXPECT_EQ(args.malformed_flags(), (std::vector<std::string>{"n"}));
}

TEST(Args, MalformedIntListItemRejectsTheWholeList) {
  const Args args = make_args({"--sizes=4,8x,16", "--seeds", "1,,2,"});
  EXPECT_EQ(args.get_int_list("sizes", {1}), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(args.get_int_list("seeds", {}),
            (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(args.malformed_flags(), (std::vector<std::string>{"sizes"}));
}

TEST(Args, EmptyValueIsFallbackNotMalformed) {
  const Args args = make_args({"--n", "--rate="});
  EXPECT_EQ(args.get_int("n", 4), 4);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.5), 0.5);
  EXPECT_TRUE(args.malformed_flags().empty());
}

TEST(Args, StringQueriesNeverReportMalformed) {
  const Args args = make_args({"--mode=12x"});
  EXPECT_EQ(args.get_string("mode", ""), "12x");
  EXPECT_TRUE(args.malformed_flags().empty());
}

TEST(Args, NonFlagTokensIgnored) {
  const Args args = make_args({"positional", "--n", "3"});
  EXPECT_EQ(args.get_int("n", 0), 3);
}

}  // namespace
}  // namespace wrt::util
