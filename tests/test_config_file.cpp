#include "util/config_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/error.h"

namespace cpsguard::util {
namespace {

TEST(ConfigFile, ParsesKeysAndValues) {
  const auto cfg = ConfigFile::parse(
      "campaign.patients = 20\n"
      "campaign.seed=42\n"
      "epochs =  10 \n");
  EXPECT_EQ(cfg.size(), 3u);
  EXPECT_EQ(cfg.get_int("campaign.patients", 0), 20);
  EXPECT_EQ(cfg.get_int("campaign.seed", 0), 42);
  EXPECT_EQ(cfg.get_int("epochs", 0), 10);
}

TEST(ConfigFile, CommentsAndBlankLines) {
  const auto cfg = ConfigFile::parse(
      "# full-line comment\n"
      "\n"
      "key = value   # trailing comment\n");
  EXPECT_EQ(cfg.size(), 1u);
  EXPECT_EQ(cfg.get("key", ""), "value");
}

TEST(ConfigFile, TypedAccessorsAndDefaults) {
  const auto cfg = ConfigFile::parse(
      "lr = 0.001\nflag = true\nname = glucosym\n");
  EXPECT_DOUBLE_EQ(cfg.get_double("lr", 0.0), 0.001);
  EXPECT_TRUE(cfg.get_bool("flag", false));
  EXPECT_EQ(cfg.get("name", ""), "glucosym");
  EXPECT_EQ(cfg.get_int("missing", 7), 7);
  EXPECT_FALSE(cfg.has("missing"));
  EXPECT_TRUE(cfg.has("lr"));
}

TEST(ConfigFile, BoolForms) {
  const auto cfg = ConfigFile::parse("a = 1\nb = yes\nc = no\nd = false\n");
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_TRUE(cfg.get_bool("b", false));
  EXPECT_FALSE(cfg.get_bool("c", true));
  EXPECT_FALSE(cfg.get_bool("d", true));
}

TEST(ConfigFile, ErrorsCarryLineNumbers) {
  try {
    ConfigFile::parse("good = 1\nbad line without equals\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ConfigFile, RejectsDuplicateAndEmptyKeys) {
  EXPECT_THROW(ConfigFile::parse("k = 1\nk = 2\n"), std::runtime_error);
  EXPECT_THROW(ConfigFile::parse(" = 1\n"), std::runtime_error);
}

TEST(ConfigFile, LoadFromDisk) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "cpsguard_cfg_test.conf").string();
  {
    std::ofstream f(path);
    f << "campaign.sims = 5\n";
  }
  const auto cfg = ConfigFile::load(path);
  EXPECT_EQ(cfg.get_int("campaign.sims", 0), 5);
  std::remove(path.c_str());
}

TEST(ConfigFile, LoadMissingFileThrows) {
  EXPECT_THROW(ConfigFile::load("/definitely/not/here.conf"), std::runtime_error);
}

TEST(ConfigFile, ValueMayContainEquals) {
  const auto cfg = ConfigFile::parse("expr = a=b\n");
  EXPECT_EQ(cfg.get("expr", ""), "a=b");
}

// Regression (fuzz target "config"): get_int/get_double went through
// std::stoi/std::stod — trailing garbage silently truncated and junk threw
// untyped std::invalid_argument / std::out_of_range.
TEST(ConfigFile, TypedGettersRejectTrailingGarbage) {
  const auto cfg = ConfigFile::parse("threads = 4x\nrate = 0.5pt\n");
  EXPECT_THROW((void)cfg.get_int("threads", 0), ParseError);
  EXPECT_THROW((void)cfg.get_double("rate", 0.0), ParseError);
}

TEST(ConfigFile, TypedGettersRejectOutOfRange) {
  const auto cfg = ConfigFile::parse("k = 1e999\nn = 9999999999999999999\n");
  EXPECT_THROW((void)cfg.get_double("k", 0.0), ParseError);
  EXPECT_THROW((void)cfg.get_int("n", 0), ParseError);
}

TEST(ConfigFile, ParseErrorNamesKeyAndRawText) {
  const auto cfg = ConfigFile::parse("threads = 4x\n");
  try {
    (void)cfg.get_int("threads", 0);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("threads"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4x"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace cpsguard::util
