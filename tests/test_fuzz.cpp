// The fuzz subsystem's own tests: mutator/driver determinism, target
// contracts on their seed inputs, corpus plumbing, differential-oracle
// cleanliness, and the committed-corpus regression gate (replay every
// tests/corpus case + registry <-> disk agreement).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "fuzz/corpus.h"
#include "fuzz/driver.h"
#include "fuzz/mutator.h"
#include "fuzz/oracles.h"
#include "fuzz/target.h"
#include "util/error.h"
#include "util/rng.h"

namespace cpsguard::fuzz {
namespace {

namespace fs = std::filesystem;

const std::vector<std::string> kDict = {"G[", "true", "&&", "0.5"};

// ---- mutators --------------------------------------------------------------

TEST(ByteMutator, DeterministicUnderSameSeed) {
  ByteMutator m1(util::Rng(7));
  ByteMutator m2(util::Rng(7));
  std::string in = "BG > 180 && u3 > 0.5";
  for (int i = 0; i < 200; ++i) {
    const std::string a = m1.mutate(in, kDict);
    const std::string b = m2.mutate(in, kDict);
    ASSERT_EQ(a, b) << "diverged at iteration " << i;
    in = a;  // follow the drift so deep states are compared too
  }
}

TEST(ByteMutator, DifferentSeedsDiverge) {
  ByteMutator m1(util::Rng(7));
  ByteMutator m2(util::Rng(8));
  int diffs = 0;
  for (int i = 0; i < 50; ++i) {
    if (m1.mutate("seed input", kDict) != m2.mutate("seed input", kDict)) ++diffs;
  }
  EXPECT_GT(diffs, 25);
}

TEST(ByteMutator, RespectsLengthCap) {
  ByteMutator m(util::Rng(3));
  std::string in(ByteMutator::kMaxLen, 'a');
  for (int i = 0; i < 500; ++i) {
    in = m.mutate(in, kDict);
    ASSERT_LE(in.size(), ByteMutator::kMaxLen);
  }
}

TEST(ByteMutator, EmptyInputStaysUsable) {
  ByteMutator m(util::Rng(5));
  for (int i = 0; i < 200; ++i) {
    (void)m.mutate("", kDict);  // must not crash or hang
  }
}

TEST(TokenMutator, GeneratesFromDictionaryDeterministically) {
  TokenMutator t1(util::Rng(9));
  TokenMutator t2(util::Rng(9));
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(t1.generate(kDict, 8), t2.generate(kDict, 8));
  }
  TokenMutator t3(util::Rng(9));
  EXPECT_EQ(t3.generate({}, 8), "");  // empty dictionary is not an error
}

// ---- targets ---------------------------------------------------------------

TEST(FuzzTargets, RegistryCoversAllParsers) {
  std::set<std::string> names;
  for (const auto& t : all_targets()) names.insert(t.name);
  const std::set<std::string> expected = {"stl",  "config",     "csv",
                                          "json", "checkpoint", "model",
                                          "cli"};
  EXPECT_EQ(names, expected);
  EXPECT_EQ(find_target("nope"), nullptr);
  ASSERT_NE(find_target("stl"), nullptr);
  EXPECT_EQ(find_target("stl")->name, "stl");
}

TEST(FuzzTargets, SeedInputsAreAccepted) {
  // Every target's seed corpus must be well-formed: a rejected seed means
  // the mutation campaign starts from dead inputs.
  for (const auto& t : all_targets()) {
    ASSERT_FALSE(t.seeds.empty()) << t.name;
    for (std::size_t i = 0; i < t.seeds.size(); ++i) {
      EXPECT_TRUE(t.run(t.seeds[i])) << t.name << " seed " << i;
    }
  }
}

TEST(FuzzTargets, HostileInputsAreTypedRejects) {
  // A sampler of historically fatal inputs; full coverage lives in
  // tests/corpus and the per-module regression tests.
  EXPECT_FALSE(find_target("stl")->run(std::string(300, '(')));
  EXPECT_FALSE(find_target("json")->run("{\"k\":"));
  EXPECT_FALSE(find_target("cli")->run("positional junk"));
  EXPECT_FALSE(find_target("checkpoint")->run("cpsguard.checkpoint.v1\n"));
  EXPECT_FALSE(find_target("model")->run("CPSGMDL1 not a real artifact"));
  EXPECT_FALSE(find_target("model")->run(""));
}

// ---- corpus ----------------------------------------------------------------

TEST(Corpus, FilenameIsContentAddressed) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  const std::string name = case_filename("fuzz", "input");
  EXPECT_EQ(name.size(), std::string("fuzz-0123456789abcdef.case").size());
  EXPECT_EQ(name, case_filename("fuzz", "input"));       // stable
  EXPECT_NE(name, case_filename("fuzz", "other input")); // content-addressed
}

TEST(Corpus, SaveLoadListRoundTrip) {
  const fs::path dir = fs::temp_directory_path() / "cpsguard_corpus_test";
  fs::remove_all(dir);
  const std::string payload = std::string("bytes\x00with\x01nul", 14);
  const std::string path = save_case(dir.string(), "stl", "fuzz", payload);
  EXPECT_EQ(load_case(path), payload);
  const auto cases = list_cases(dir.string(), "stl");
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases.front(), path);
  EXPECT_TRUE(list_cases(dir.string(), "json").empty());  // missing dir ok
  EXPECT_THROW(load_case((dir / "absent.case").string()), CpsError);
  fs::remove_all(dir);
}

TEST(Corpus, MinimizeShrinksToTheTrigger) {
  const std::string noisy = "aaaaaaaaaaaaaaaaTRIGGERbbbbbbbbbbbbbbbb";
  const std::string minimal = minimize(noisy, [](const std::string& s) {
    return s.find("TRIGGER") != std::string::npos;
  });
  EXPECT_EQ(minimal, "TRIGGER");
  // Deterministic: same input + predicate, same result.
  EXPECT_EQ(minimal, minimize(noisy, [](const std::string& s) {
              return s.find("TRIGGER") != std::string::npos;
            }));
}

// ---- driver ----------------------------------------------------------------

TEST(FuzzDriver, UnknownTargetThrowsTyped) {
  FuzzOptions opts;
  opts.target = "definitely-not-a-target";
  EXPECT_THROW(run_fuzz(opts), CpsError);
}

TEST(FuzzDriver, CampaignIsDeterministic) {
  FuzzOptions opts;
  opts.target = "stl";
  opts.iters = 400;
  opts.seed = 1234;
  opts.save_repros = false;
  const FuzzStats a = run_fuzz(opts);
  const FuzzStats b = run_fuzz(opts);
  EXPECT_EQ(a.iterations, 400);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.violation_messages, b.violation_messages);
}

TEST(FuzzDriver, ShortCampaignsFindNoViolations) {
  // The standing robustness bar: no registered target breaks its contract
  // under a quick mutation barrage. (CI runs the long version.)
  for (const auto& t : all_targets()) {
    FuzzOptions opts;
    opts.target = t.name;
    opts.iters = 300;
    opts.save_repros = false;
    const FuzzStats stats = run_fuzz(opts);
    EXPECT_TRUE(stats.clean())
        << t.name << ": " << (stats.violation_messages.empty()
                                  ? "?"
                                  : stats.violation_messages.front());
  }
}

// ---- committed-corpus regression gate --------------------------------------

struct RegistryEntry {
  std::string target;
  std::string file;
  std::string why;
};

std::vector<RegistryEntry> registry() {
  std::vector<RegistryEntry> entries;
#define CORPUS_CASE(target, file, why) entries.push_back({target, file, why});
#include "corpus/registry.inc"
#undef CORPUS_CASE
  return entries;
}

TEST(CorpusRegression, EveryCommittedCaseReplaysClean) {
  const FuzzStats stats = replay_corpus(CPSGUARD_CORPUS_DIR, "");
  EXPECT_GE(stats.iterations, 19);  // the corpus only ever grows
  EXPECT_TRUE(stats.clean()) << (stats.violation_messages.empty()
                                     ? "?"
                                     : stats.violation_messages.front());
}

TEST(CorpusRegression, RegistryMatchesDiskExactly) {
  std::set<std::string> registered;
  for (const auto& e : registry()) {
    ASSERT_NE(find_target(e.target), nullptr)
        << "registry names unknown target " << e.target;
    EXPECT_FALSE(e.why.empty()) << e.target << "/" << e.file;
    EXPECT_TRUE(registered.insert(e.target + "/" + e.file).second)
        << "duplicate registry entry " << e.target << "/" << e.file;
  }
  std::set<std::string> on_disk;
  for (const auto& t : all_targets()) {
    for (const auto& path : list_cases(CPSGUARD_CORPUS_DIR, t.name)) {
      on_disk.insert(t.name + "/" + fs::path(path).filename().string());
    }
  }
  EXPECT_EQ(registered, on_disk)
      << "tests/corpus and registry.inc disagree; every *.case needs a "
         "CORPUS_CASE entry and vice versa";
}

// ---- differential oracles --------------------------------------------------

TEST(Oracles, AllRegisteredOraclesRunClean) {
  for (const auto& name : oracle_names()) {
    // batched_predict trains a small monitor on first use; keep the case
    // count test-sized here — CI runs the 1000-case sweep.
    const int cases = name == "batched_predict" ? 20 : 120;
    const OracleReport report = run_oracle(name, cases, 7);
    EXPECT_EQ(report.name, name);
    EXPECT_GE(report.cases, cases);
    EXPECT_TRUE(report.clean()) << name << ": " << report.first_mismatch;
  }
}

TEST(Oracles, DeterministicInSeed) {
  const OracleReport a = run_oracle("cusum", 60, 99);
  const OracleReport b = run_oracle("cusum", 60, 99);
  EXPECT_EQ(a.mismatches, b.mismatches);
  EXPECT_EQ(a.first_mismatch, b.first_mismatch);
}

TEST(Oracles, UnknownNameThrowsTyped) {
  EXPECT_THROW(run_oracle("nope", 1, 0), CpsError);
}

}  // namespace
}  // namespace cpsguard::fuzz
