// Versioned on-disk model store. Each published monitor becomes one
// immutable cpsguard.model.v1 artifact, `v00000001.model` onward, written
// via the atomic temp+rename path with write-fault retries and verified
// end-to-end (full parse + whole-file SHA-256) before publish returns —
// and again on every open, so a rotted artifact is rejected with a typed
// error instead of ever producing a wrong verdict.
//
// Lineage chains through the meta section exactly like checkpoint stores:
// every publish mints a fresh run_id and records the previous latest
// version's run_id as parent_run_id.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "registry/model_io.h"

namespace cpsguard::registry {

/// A registered version, described without loading its weights into params.
struct ModelRecord {
  std::uint64_t version = 0;
  std::string path;
  ArtifactInfo info;
  ModelMeta meta;
  std::string sha256;  // whole-file hex digest
};

class ModelRegistry {
 public:
  /// Opens (and creates if needed) the registry directory.
  explicit ModelRegistry(std::string dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Atomic publish: serialize `mon` with lineage chained from the current
  /// latest version, write temp+rename under retry, then verify-on-open
  /// before returning the new version number. Crash- and chaos-safe: a torn
  /// or rotted write is retried until the artifact reads back verbatim.
  std::uint64_t publish(monitor::MlMonitor& mon, const std::string& display_name,
                        const std::string& config_fingerprint);

  /// Registered versions, ascending. Ignores foreign files in the dir.
  [[nodiscard]] std::vector<std::uint64_t> versions() const;
  /// Highest registered version, 0 when the registry is empty.
  [[nodiscard]] std::uint64_t latest() const;

  /// Verify-on-open: read the file, then full structural parse + SHA-256.
  /// Throws CpsError (ModelFormatError for corruption) — never returns a
  /// questionable artifact.
  [[nodiscard]] ModelArtifact open(std::uint64_t version) const;
  /// Parse header + meta of a version (verify included).
  [[nodiscard]] ModelRecord describe(std::uint64_t version) const;
  /// Open + decode: a self-contained monitor that owns its weights. It
  /// scores with the verified bytes for its whole life, whatever happens
  /// to the file afterwards (rewritten, truncated or GC'd).
  struct LoadedModel {
    std::unique_ptr<monitor::MlMonitor> monitor;
  };
  [[nodiscard]] LoadedModel load(std::uint64_t version) const;

  /// Retained-version GC: delete every version except the newest `keep`
  /// (the latest is always retained). Returns the removed versions.
  std::vector<std::uint64_t> gc(std::size_t keep);

  [[nodiscard]] std::string path_of(std::uint64_t version) const;

 private:
  std::string dir_;
};

}  // namespace cpsguard::registry
