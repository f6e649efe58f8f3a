#include "util/cli.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/error.h"

namespace cpsguard::util {
namespace {

Cli make_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Cli(static_cast<int>(args.size()), args.data());
}

TEST(Cli, SpaceSeparatedValue) {
  const Cli cli = make_cli({"--sims", "12"});
  EXPECT_EQ(cli.get_int("sims", 0), 12);
}

TEST(Cli, EqualsSeparatedValue) {
  const Cli cli = make_cli({"--eps=0.25"});
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0), 0.25);
}

TEST(Cli, BareFlagIsTrue) {
  const Cli cli = make_cli({"--verbose"});
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_TRUE(cli.has("verbose"));
}

TEST(Cli, DefaultsWhenMissing) {
  const Cli cli = make_cli({});
  EXPECT_EQ(cli.get("name", "fallback"), "fallback");
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("d", 1.5), 1.5);
  EXPECT_FALSE(cli.get_bool("b", false));
  EXPECT_FALSE(cli.has("anything"));
}

TEST(Cli, BoolParsesCommonForms) {
  EXPECT_TRUE(make_cli({"--x", "true"}).get_bool("x", false));
  EXPECT_TRUE(make_cli({"--x", "1"}).get_bool("x", false));
  EXPECT_TRUE(make_cli({"--x", "yes"}).get_bool("x", false));
  EXPECT_FALSE(make_cli({"--x", "no"}).get_bool("x", true));
}

TEST(Cli, RejectsPositionalArguments) {
  EXPECT_THROW(make_cli({"positional"}), CpsError);
}

// Regression (fuzz target "cli"): numeric flags used to go through std::stoi
// / std::stod, which accepted trailing garbage ("--threads=4x" parsed as 4)
// and threw untyped std::invalid_argument / std::out_of_range on junk.
TEST(Cli, TypedGettersRejectTrailingGarbage) {
  EXPECT_THROW((void)make_cli({"--threads=4x"}).get_int("threads", 0), ParseError);
  EXPECT_THROW((void)make_cli({"--rate=0.5pt"}).get_double("rate", 0.0), ParseError);
}

TEST(Cli, TypedGettersRejectNonNumeric) {
  EXPECT_THROW((void)make_cli({"--threads", "many"}).get_int("threads", 0), ParseError);
  EXPECT_THROW((void)make_cli({"--rate", "."}).get_double("rate", 0.0), ParseError);
  EXPECT_THROW((void)make_cli({"--threads="}).get_int("threads", 0), ParseError);
}

TEST(Cli, TypedGettersRejectOutOfRange) {
  EXPECT_THROW((void)make_cli({"--threads=9999999999999999999"}).get_int("threads", 0),
               ParseError);
  EXPECT_THROW((void)make_cli({"--rate=1e999"}).get_double("rate", 0.0), ParseError);
}

TEST(Cli, ParseErrorNamesTheFlagAndRawText) {
  try {
    (void)make_cli({"--threads=4x"}).get_int("threads", 0);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--threads"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4x"), std::string::npos) << msg;
  }
}

TEST(Cli, UnusedTracksUnqueriedFlags) {
  const Cli cli = make_cli({"--used", "1", "--typo", "2"});
  (void)cli.get_int("used", 0);
  const auto unused = cli.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, ProgramNameCaptured) {
  const Cli cli = make_cli({});
  EXPECT_EQ(cli.program(), "prog");
}

TEST(Cli, NegativeNumericValue) {
  const Cli cli = make_cli({"--delta=-3"});
  EXPECT_EQ(cli.get_int("delta", 0), -3);
}

}  // namespace
}  // namespace cpsguard::util
