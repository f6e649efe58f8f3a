// Model registry + artifact suite: load bit-identity against the freshly
// trained monitor (all three architectures), canonical rebuild, flip-a-byte
// and truncation rejection, a hostile directory length, config-bound
// loads, atomic-publish crash safety under chaos injection, lineage
// chaining, retained-version GC, a loaded monitor that keeps its verified
// bytes when the file changes, and loads racing publish and GC.
#include "registry/registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/experiment.h"
#include "obs/sha256.h"
#include "registry/artifact.h"
#include "registry/model_io.h"
#include "util/chaos.h"
#include "util/contracts.h"

namespace cpsguard::registry {
namespace {

namespace fs = std::filesystem;

core::ExperimentConfig tiny_config() {
  core::ExperimentConfig cfg;
  cfg.campaign.patients = 3;
  cfg.campaign.sims_per_patient = 3;
  cfg.campaign.trace_steps = 60;
  cfg.campaign.seed = 11;
  cfg.epochs = 2;
  cfg.cache_dir = "";
  return cfg;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest() : exp_(tiny_config()) {
    dir_ = (fs::temp_directory_path() /
            ("cpsguard_registry_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  ~RegistryTest() override {
    util::chaos().configure(util::ChaosConfig{});  // off, for later tests
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  core::Experiment exp_;
  std::string dir_;
};

TEST_F(RegistryTest, LoadIsBitIdenticalForAllArchitectures) {
  ModelRegistry reg(dir_);
  const core::MonitorVariant variants[] = {
      {monitor::Arch::kMlp, false},
      {monitor::Arch::kGru, false},
      {monitor::Arch::kLstm, false},
  };
  for (const auto& v : variants) {
    monitor::MlMonitor& trained = exp_.monitor(v);
    const std::uint64_t version = exp_.publish_monitor(v, reg);

    // The loaded monitor's weights are copies of the verified blobs.
    // Probabilities must match the in-memory monitor bit for bit — same
    // scaler stream, same weight bytes, same forward path.
    const ModelRegistry::LoadedModel loaded = reg.load(version);
    const nn::Tensor3& x = exp_.test_data().x;
    const nn::Matrix expected = trained.predict_proba(x);
    const nn::Matrix got = loaded.monitor->predict_proba(x);
    EXPECT_EQ(got, expected) << v.name();

    const ModelRecord rec = reg.describe(version);
    EXPECT_EQ(rec.meta.display_name, v.name());
    EXPECT_EQ(rec.meta.config_fingerprint, exp_.config_fingerprint());
    EXPECT_EQ(rec.info.window, exp_.config().dataset.window);
  }
  EXPECT_EQ(reg.versions().size(), 3u);
}

TEST_F(RegistryTest, PublishChainsLineageAcrossVersions) {
  ModelRegistry reg(dir_);
  const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
  const std::uint64_t v1 = exp_.publish_monitor(mlp, reg);
  const std::uint64_t v2 = exp_.publish_monitor(mlp, reg);
  ASSERT_EQ(v1, 1u);
  ASSERT_EQ(v2, 2u);

  const ModelRecord r1 = reg.describe(v1);
  const ModelRecord r2 = reg.describe(v2);
  EXPECT_TRUE(r1.meta.parent_run_id.empty());
  EXPECT_EQ(r2.meta.parent_run_id, r1.meta.run_id);
  EXPECT_NE(r2.meta.run_id, r1.meta.run_id);
  EXPECT_EQ(r1.sha256.size(), 64u);
}

TEST_F(RegistryTest, AcceptedArtifactRebuildsBitIdentically) {
  ModelRegistry reg(dir_);
  const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
  const std::uint64_t version = exp_.publish_monitor(mlp, reg);
  const std::string path = dir_ + "/v00000001.model";
  const std::string bytes = read_file(path);
  ASSERT_FALSE(bytes.empty());

  const ModelArtifact art = reg.open(version);
  EXPECT_EQ(art.rebuild(), bytes);
  EXPECT_EQ(art.size_bytes(), bytes.size());
  // Publishing the same weights again must be byte-reproducible modulo the
  // meta section (fresh run id / version / lineage).
  EXPECT_EQ(ModelArtifact::parse(bytes).rebuild(), bytes);
}

// Little-endian u64 header field of an artifact.
std::uint64_t header_u64(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

TEST_F(RegistryTest, EveryFlippedByteIsATypedReject) {
  ModelRegistry reg(dir_);
  const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
  (void)exp_.publish_monitor(mlp, reg);
  const std::string path = dir_ + "/v00000001.model";
  const std::string clean = read_file(path);
  ASSERT_GT(clean.size(), kModelHeaderSize + kModelShaSize);

  // Flip one byte at a stride of positions covering header, sections,
  // blobs and the SHA trailer. Every corruption must surface as the typed
  // ModelFormatError — the SHA backstops whatever the structural checks
  // miss — and never load as a subtly different model.
  std::size_t tried = 0;
  for (std::size_t pos = 0; pos < clean.size();
       pos += 1 + clean.size() / 97) {
    std::string bad = clean;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x20);
    if (bad == clean) continue;
    ++tried;
    EXPECT_THROW((void)ModelArtifact::parse(bad), ModelFormatError)
        << "byte " << pos;
    write_file(path, bad);
    EXPECT_THROW((void)reg.open(1), ModelFormatError) << "byte " << pos;
  }
  EXPECT_GE(tried, 50u);
  // Truncations: inside the header, torn writes that end inside the
  // weight blobs (blob section offset/length at [80, 96)), and cuts into
  // the SHA trailer.
  const std::size_t blob_off = static_cast<std::size_t>(header_u64(clean, 80));
  const std::size_t blob_len = static_cast<std::size_t>(header_u64(clean, 88));
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{7}, kModelHeaderSize - 1,
        kModelHeaderSize, blob_off + 1, blob_off + blob_len / 2,
        blob_off + blob_len - 1, clean.size() - kModelShaSize,
        clean.size() - 1}) {
    EXPECT_THROW((void)ModelArtifact::parse(clean.substr(0, len)),
                 ModelFormatError)
        << "len " << len;
  }
  // Restore: the intact bytes still verify.
  write_file(path, clean);
  EXPECT_EQ(reg.open(1).file_sha256_hex(), ModelArtifact::parse(clean).file_sha256_hex());
}

// Replace the SHA-256 trailer with the digest of the (edited) payload, so
// only the structural checks stand between the edit and a load.
std::string resealed(std::string bytes) {
  const std::size_t payload = bytes.size() - kModelShaSize;
  obs::Sha256 sha;
  sha.update(bytes.data(), payload);
  const auto digest = sha.digest();
  bytes.replace(payload, kModelShaSize,
                reinterpret_cast<const char*>(digest.data()), digest.size());
  return bytes;
}

TEST_F(RegistryTest, CorruptNameLengthIsNotAnAllocationBomb) {
  ModelRegistry reg(dir_);
  const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
  (void)exp_.publish_monitor(mlp, reg);
  std::string bytes = read_file(reg.path_of(1));
  // The first directory entry's u32 name_len, at the directory offset the
  // header records at [64, 72), set to 0xffffffff with a valid checksum.
  const std::size_t dir_off = static_cast<std::size_t>(header_u64(bytes, 64));
  bytes.replace(dir_off, 4, "\xff\xff\xff\xff", 4);
  EXPECT_THROW((void)ModelArtifact::parse(resealed(bytes)), ModelFormatError);
}

// The experiment cache restores a variant into its own config: any other
// arch, semantic flag or hidden layout is a format error, never a
// silently different monitor.
TEST_F(RegistryTest, ConfigBoundLoadRejectsAnotherLayout) {
  ModelRegistry reg(dir_);
  const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
  (void)exp_.publish_monitor(mlp, reg);
  const ModelArtifact art = reg.open(1);
  const monitor::MonitorConfig want = exp_.monitor_config(mlp);

  const auto mon = load_monitor(art, want);
  EXPECT_EQ(mon->config().seed, want.seed);
  EXPECT_EQ(mon->config().epochs, want.epochs);
  const nn::Tensor3& x = exp_.test_data().x;
  EXPECT_EQ(mon->predict_proba(x), exp_.monitor(mlp).predict_proba(x));

  monitor::MonitorConfig other = want;
  other.arch = monitor::Arch::kLstm;
  EXPECT_THROW((void)load_monitor(art, other), ModelFormatError);
  other = want;
  other.semantic = true;
  EXPECT_THROW((void)load_monitor(art, other), ModelFormatError);
  other = want;
  other.hidden = {16};
  EXPECT_THROW((void)load_monitor(art, other), ModelFormatError);
}

TEST_F(RegistryTest, PublishSurvivesChaosFaultInjection) {
  // Chaos corrupts the published file after the atomic write; the publish
  // write-verify loop must detect it via verify-on-open and rewrite until
  // the artifact reads back verbatim. Faults are transient (one per site),
  // so the loop converges and the final artifact must be pristine.
  util::ChaosConfig chaos;
  chaos.enabled = true;
  chaos.seed = 7;
  chaos.io_fail_rate = 1.0;
  chaos.corrupt_rate = 1.0;
  util::chaos().configure(chaos);

  ModelRegistry reg(dir_);
  const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
  const std::uint64_t version = exp_.publish_monitor(mlp, reg);
  util::chaos().configure(util::ChaosConfig{});

  const ModelRegistry::LoadedModel loaded = reg.load(version);
  const nn::Tensor3& x = exp_.test_data().x;
  EXPECT_EQ(loaded.monitor->predict_proba(x),
            exp_.monitor(mlp).predict_proba(x));
}

TEST_F(RegistryTest, GcRetainsNewestVersions) {
  ModelRegistry reg(dir_);
  const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
  for (int i = 0; i < 3; ++i) (void)exp_.publish_monitor(mlp, reg);
  ASSERT_EQ(reg.latest(), 3u);

  const std::vector<std::uint64_t> removed = reg.gc(2);
  EXPECT_EQ(removed, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(reg.versions(), (std::vector<std::uint64_t>{2, 3}));
  EXPECT_THROW((void)reg.open(1), CpsError);
  EXPECT_TRUE(reg.gc(2).empty());  // idempotent at the retention floor
  EXPECT_THROW((void)reg.gc(0), ContractViolation);
  // Lineage still reads after GC: v3's parent run id survives in v3's meta
  // even though v2's file is the oldest remaining.
  EXPECT_FALSE(reg.describe(3).meta.parent_run_id.empty());
}

TEST_F(RegistryTest, LoadedMonitorKeepsVerifiedBytes) {
  ModelRegistry reg(dir_);
  const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
  const std::uint64_t version = exp_.publish_monitor(mlp, reg);
  const ModelRegistry::LoadedModel loaded = reg.load(version);
  const nn::Tensor3& x = exp_.test_data().x;
  const nn::Matrix expected = exp_.monitor(mlp).predict_proba(x);

  // Rewrite the artifact in place with zeros, then cut it to nothing. A
  // monitor reading the file (a shared mapping, say) would score the new
  // bytes and then fault; the loaded monitor must not notice either.
  const std::string path = reg.path_of(version);
  const std::string zeros(static_cast<std::size_t>(fs::file_size(path)), '\0');
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(zeros.data(), 1, zeros.size(), f), zeros.size());
  ASSERT_EQ(std::fclose(f), 0);
  EXPECT_EQ(loaded.monitor->predict_proba(x), expected);
  fs::resize_file(path, 0);
  EXPECT_EQ(loaded.monitor->predict_proba(x), expected);

  // The weights are the monitor's own storage.
  nn::Param* w = loaded.monitor->classifier().params().front();
  EXPECT_NO_THROW(w->value.fill(0.0f));
}

TEST_F(RegistryTest, ConcurrentLoadsWhilePublishingAndGc) {
  ModelRegistry reg(dir_);
  const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
  (void)exp_.publish_monitor(mlp, reg);
  const nn::Tensor3& x = exp_.test_data().x;
  const nn::Matrix expected = exp_.monitor(mlp).predict_proba(x);

  // Four threads load the newest version and score it while this thread
  // publishes and GCs. A load either returns a monitor that scores bit for
  // bit like the trained one, or throws a typed CpsError (its version was
  // GC'd between the listing and the read).
  std::atomic<bool> done{false};
  std::atomic<int> scored{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> loaders;
  for (int t = 0; t < 4; ++t) {
    loaders.emplace_back([&] {
      // Each thread keeps going until it has scored once, so the count
      // below does not depend on scheduling.
      int mine = 0;
      while (!done.load() || (mine == 0 && wrong.load() == 0)) {
        try {
          const ModelRegistry::LoadedModel m = reg.load(reg.latest());
          if (m.monitor->predict_proba(x) == expected) {
            ++mine;
          } else {
            ++wrong;
          }
        } catch (const CpsError&) {
          // Typed: the version went between the listing and the read.
        }
      }
      scored += mine;
    });
  }
  for (int i = 0; i < 12; ++i) {
    (void)exp_.publish_monitor(mlp, reg);
    (void)reg.gc(1);
  }
  done.store(true);
  for (std::thread& t : loaders) t.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(scored.load(), 4);
  EXPECT_EQ(reg.versions(), (std::vector<std::uint64_t>{13}));
}

TEST_F(RegistryTest, MissingAndForeignVersionsAreTypedErrors) {
  ModelRegistry reg(dir_);
  EXPECT_EQ(reg.latest(), 0u);
  EXPECT_TRUE(reg.versions().empty());
  EXPECT_THROW((void)reg.open(1), CpsError);
  EXPECT_THROW((void)reg.open(0), ContractViolation);

  // Foreign files in the registry directory are ignored by the version
  // scan, never parsed.
  write_file(dir_ + "/notes.txt", "not a model");
  write_file(dir_ + "/v1.model", "bad name");
  write_file(dir_ + "/v00000000.model", "version zero is invalid");
  EXPECT_TRUE(reg.versions().empty());

  const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
  (void)exp_.publish_monitor(mlp, reg);
  EXPECT_EQ(reg.versions(), (std::vector<std::uint64_t>{1}));
}

}  // namespace
}  // namespace cpsguard::registry
