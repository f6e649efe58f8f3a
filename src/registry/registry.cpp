#include "registry/registry.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "obs/fileio.h"
#include "obs/metrics.h"
#include "util/chaos.h"
#include "util/contracts.h"
#include "util/logging.h"
#include "util/retry.h"
#include "util/run_id.h"

namespace cpsguard::registry {

namespace fs = std::filesystem;

namespace {

struct RegistryMetrics {
  obs::Counter& published;
  obs::Counter& opened;
  obs::Counter& verify_failed;
  obs::Counter& gc_removed;

  static RegistryMetrics& get() {
    static RegistryMetrics m{
        obs::Registry::instance().counter("registry.published"),
        obs::Registry::instance().counter("registry.opened"),
        obs::Registry::instance().counter("registry.verify_failed"),
        obs::Registry::instance().counter("registry.gc_removed"),
    };
    return m;
  }
};

/// Strict `v%08u.model` filename → version, nullopt for foreign files.
std::optional<std::uint64_t> parse_version_filename(const std::string& name) {
  constexpr std::size_t kDigits = 8;
  const std::string suffix = ".model";
  if (name.size() != 1 + kDigits + suffix.size() || name[0] != 'v') {
    return std::nullopt;
  }
  if (name.compare(1 + kDigits, suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t v = 0;
  for (std::size_t i = 1; i <= kDigits; ++i) {
    if (std::isdigit(static_cast<unsigned char>(name[i])) == 0) {
      return std::nullopt;
    }
    v = v * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  if (v == 0) return std::nullopt;
  return v;
}

}  // namespace

ModelRegistry::ModelRegistry(std::string dir) : dir_(std::move(dir)) {
  expects(!dir_.empty(), "model registry needs a directory");
  fs::create_directories(dir_);
}

std::string ModelRegistry::path_of(std::uint64_t version) const {
  char name[32];
  std::snprintf(name, sizeof(name), "v%08llu.model",
                static_cast<unsigned long long>(version));
  return dir_ + "/" + name;
}

std::vector<std::uint64_t> ModelRegistry::versions() const {
  std::vector<std::uint64_t> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (const auto v = parse_version_filename(entry.path().filename().string())) {
      out.push_back(*v);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t ModelRegistry::latest() const {
  const auto all = versions();
  return all.empty() ? 0 : all.back();
}

ModelArtifact ModelRegistry::open(std::uint64_t version) const {
  expects(version > 0, "model versions start at 1");
  const std::string path = path_of(version);
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) {
    throw CpsError("model registry " + dir_ + ": version " +
                   std::to_string(version) + " not found");
  }
  try {
    ModelArtifact art = ModelArtifact::open(path);
    RegistryMetrics::get().opened.increment();
    return art;
  } catch (const ModelFormatError&) {
    RegistryMetrics::get().verify_failed.increment();
    throw;
  }
}

ModelRecord ModelRegistry::describe(std::uint64_t version) const {
  const ModelArtifact art = open(version);
  ModelRecord rec;
  rec.version = version;
  rec.path = path_of(version);
  rec.info = art.info();
  rec.meta = parse_model_meta(art);
  rec.sha256 = art.file_sha256_hex();
  return rec;
}

ModelRegistry::LoadedModel ModelRegistry::load(std::uint64_t version) const {
  return LoadedModel{load_monitor(open(version))};
}

std::uint64_t ModelRegistry::publish(monitor::MlMonitor& mon,
                                     const std::string& display_name,
                                     const std::string& config_fingerprint) {
  const std::uint64_t prev = latest();
  ModelMeta meta;
  meta.version = prev + 1;
  meta.run_id = util::fresh_run_id();
  meta.config_fingerprint = config_fingerprint;
  meta.display_name = display_name;
  meta.semantic = mon.config().semantic;
  meta.hidden = mon.config().effective_hidden();
  if (prev > 0) {
    try {
      meta.parent_run_id = describe(prev).meta.run_id;
    } catch (const CpsError& e) {
      // A rotted predecessor must not block publishing a fresh model; the
      // new version simply starts a new lineage.
      util::log_warn("model registry ", dir_, ": cannot read v", prev,
                     " for lineage (", e.what(), "), starting fresh");
    }
  }

  const std::string path = path_of(meta.version);
  const std::string bytes = build_model_artifact(mon, meta);
  // Write-verify loop: the atomic write retries transient IO faults, the
  // chaos corruption seam then gets a chance to rot the published file, and
  // verify-on-open catches it — rewrite until the artifact reads back
  // verbatim. Chaos faults are transient by construction, so this
  // converges; a persistently failing disk surfaces as the final throw.
  constexpr int kMaxPublishAttempts = 3;
  for (int attempt = 0;; ++attempt) {
    util::retry_call(util::RetryPolicy::for_file_io(), "registry.publish",
                     [&] { obs::atomic_write_file(path, bytes); });
    util::chaos().maybe_corrupt_file(path, path);
    try {
      const ModelArtifact art = ModelArtifact::open(path);
      if (art.size_bytes() != bytes.size()) {
        throw ModelFormatError("model artifact: readback size mismatch");
      }
      break;
    } catch (const ModelFormatError& e) {
      RegistryMetrics::get().verify_failed.increment();
      if (attempt + 1 >= kMaxPublishAttempts) throw;
      util::log_warn("model registry ", dir_, ": publish verify failed (",
                     e.what(), "), rewriting");
    }
  }
  RegistryMetrics::get().published.increment();
  util::log_info("model registry ", dir_, ": published v", meta.version, " (",
                 display_name, ", run ", meta.run_id, ")");
  return meta.version;
}

std::vector<std::uint64_t> ModelRegistry::gc(std::size_t keep) {
  expects(keep >= 1, "gc must retain at least the latest version");
  const auto all = versions();
  std::vector<std::uint64_t> removed;
  if (all.size() <= keep) return removed;
  for (std::size_t i = 0; i + keep < all.size(); ++i) {
    std::error_code ec;
    if (fs::remove(path_of(all[i]), ec) && !ec) {
      removed.push_back(all[i]);
      RegistryMetrics::get().gc_removed.increment();
    }
  }
  return removed;
}

}  // namespace cpsguard::registry
