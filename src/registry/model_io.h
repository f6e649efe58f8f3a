// Monitor ⇄ artifact bridge: serialize a trained monitor into one
// cpsguard.model.v1 byte string (with lineage metadata), and decode a parsed
// artifact back into a self-contained MlMonitor that owns its weights.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "monitor/ml_monitor.h"
#include "registry/artifact.h"

namespace cpsguard::registry {

/// Lineage + provenance carried in the artifact's meta JSON section.
struct ModelMeta {
  std::uint64_t version = 0;      // registry version number
  std::string run_id;             // fresh per publish (util::fresh_run_id)
  std::string parent_run_id;      // previous latest version's run_id
  std::string config_fingerprint; // experiment config hash at train time
  std::string display_name;       // e.g. "MLP-Custom"
  bool semantic = false;
  std::vector<int> hidden;        // classifier hidden sizes
};

/// Serialize monitor + meta into canonical cpsguard.model.v1 bytes.
/// Non-const monitor: reaching the classifier params requires it.
std::string build_model_artifact(monitor::MlMonitor& mon,
                                 const ModelMeta& meta);

/// Parse the meta JSON section; throws ModelFormatError when it is not the
/// JSON this writer produces (wrong schema tag, missing or mistyped keys).
ModelMeta parse_model_meta(const ModelArtifact& art);

/// Reconstruct the monitor: the scaler loads from the scaler section and
/// every weight is copied out of the blob section, so the monitor outlives
/// `art`. Throws ModelFormatError for a bad scaler section, and for tensors
/// whose names, count or shapes disagree with the classifier the header
/// and meta declare. That check runs before the classifier is built, so
/// declared layer sizes never allocate more than the file's own tensors.
std::unique_ptr<monitor::MlMonitor> load_monitor(const ModelArtifact& art);

/// Same, into a monitor built from `config` (seed, epochs, semantic weight
/// and the rest kept as given): the experiment cache and checkpoint
/// snapshots restore a variant this way. An artifact whose arch, semantic
/// flag or hidden sizes are not `config`'s is a ModelFormatError, and so
/// is anything load_monitor(art) rejects.
std::unique_ptr<monitor::MlMonitor> load_monitor(const ModelArtifact& art,
                                                 monitor::MonitorConfig config);

}  // namespace cpsguard::registry
