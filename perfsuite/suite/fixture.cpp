#include "fixture.h"

#include <filesystem>
#include <fstream>

#include "obs/sha256.h"
#include "registry/model_io.h"
#include "registry/registry.h"
#include "suite.h"
#include "util/error.h"

namespace cpsguard::suite {

namespace {

constexpr std::uint64_t kFixtureSeed = 42;

std::string ready_path(const std::string& dir) { return dir + "/READY"; }

/// True when `dir` holds a complete fixture trained with `exp`'s config.
bool fixture_matches(const std::string& dir, const core::Experiment& exp) {
  std::ifstream in(ready_path(dir));
  std::string fingerprint;
  return in >> fingerprint && fingerprint == exp.config_fingerprint();
}

}  // namespace

core::ExperimentConfig fixture_config(const std::string& dir, bool smoke) {
  core::ExperimentConfig cfg;
  cfg.campaign.testbed = sim::Testbed::kGlucosymOpenAps;
  // Full size: 20 traces of 150 cycles, 14 for training and 6 (870
  // windows) for the sweep's test set, so one Fig. 9 repetition takes a
  // few seconds and a run holds several.
  cfg.campaign.patients = smoke ? 2 : 4;
  cfg.campaign.sims_per_patient = smoke ? 3 : 5;
  cfg.campaign.trace_steps = smoke ? 60 : 150;
  cfg.campaign.seed = kFixtureSeed;
  cfg.epochs = smoke ? 1 : 6;
  cfg.cache_dir = dir + "/cache";
  return cfg;
}

std::string registry_dir(const std::string& fixture_dir) {
  return fixture_dir + "/registry";
}

void make_fixture(const std::string& dir, bool smoke) {
  core::Experiment exp(fixture_config(dir, smoke));
  if (fixture_matches(dir, exp)) return;
  // Remove only what a fixture holds, never whatever else `dir` contains.
  std::filesystem::remove(ready_path(dir));
  std::filesystem::remove_all(exp.config().cache_dir);
  std::filesystem::remove_all(registry_dir(dir));
  std::filesystem::create_directories(dir);
  exp.train_all();
  registry::ModelRegistry reg(registry_dir(dir));
  const core::MonitorVariant order[] = {
      {monitor::Arch::kMlp, false},
      {monitor::Arch::kMlp, true},
      {monitor::Arch::kLstm, false},
      {monitor::Arch::kLstm, true},
  };
  std::uint64_t expected = kMlpVersion;
  for (const core::MonitorVariant& v : order) {
    if (exp.publish_monitor(v, reg) != expected++) {
      throw CpsError("fixture: unexpected registry version for " + v.name());
    }
  }
  std::ofstream(ready_path(dir)) << exp.config_fingerprint() << '\n';
}

void require_fixture(const std::string& dir, bool smoke) {
  if (!fixture_matches(dir, core::Experiment(fixture_config(dir, smoke)))) {
    throw CpsError("no current trained-monitor fixture in '" + dir +
                   "'; create it with bench_suite --make-fixture " + dir);
  }
}

std::string model_digest(const std::string& fixture_dir) {
  const registry::ModelRegistry reg(registry_dir(fixture_dir));
  obs::Sha256 h;
  const auto put = [&](const std::string& s) {
    h.update(s.data(), s.size());
    h.update("|", 1);
  };
  for (const std::uint64_t v : reg.versions()) {
    const registry::ModelArtifact art = reg.open(v);
    const registry::ArtifactInfo& info = art.info();
    put(std::to_string(v));
    put(registry::parse_model_meta(art).display_name);
    put(std::to_string(static_cast<int>(info.arch)) + ',' +
        std::to_string(info.window) + ',' + std::to_string(info.features) +
        ',' + std::to_string(info.classes));
    put(std::string(art.scaler_bytes()));
    for (const registry::TensorEntry& t : art.tensors()) {
      put(t.name + ',' + std::to_string(t.rows) + ',' + std::to_string(t.cols));
      h.update(t.data, static_cast<std::size_t>(t.rows) *
                           static_cast<std::size_t>(t.cols) * sizeof(float));
    }
  }
  const auto d = h.digest();
  return hex(d.data(), d.size());
}

}  // namespace cpsguard::suite
