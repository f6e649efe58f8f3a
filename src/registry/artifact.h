// cpsguard.model.v1 — the deterministic binary model artifact format.
//
// Layout (all integers little-endian):
//
//   [0,   128)  fixed header
//     [0,   8)  magic "CPSGMDL1"
//     [8,  12)  u32 format_version (1)
//     [12, 16)  u32 arch (0 = MLP, 1 = LSTM, 2 = GRU)
//     [16, 20)  u32 window          [20, 24)  u32 features
//     [24, 28)  u32 classes         [28, 32)  u32 tensor_count
//     [32, 48)  u64 meta_off,   u64 meta_len      (lineage JSON)
//     [48, 64)  u64 scaler_off, u64 scaler_len    (StandardScaler stream)
//     [64, 80)  u64 dir_off,    u64 dir_len       (tensor directory)
//     [80, 96)  u64 blob_off,   u64 blob_len      (64-aligned f32 blobs)
//     [96, 104) u64 file_len    [104, 128) zero padding
//   meta JSON · scaler bytes · tensor directory   (contiguous)
//   zero pad to the next 64-byte boundary
//   tensor blobs, each 64-byte aligned, zero pad between them
//   [len-32, len)  raw SHA-256 over every preceding byte
//
// Directory entry: u32 name_len, name bytes, u32 rows, u32 cols,
// u64 rel_off (blob-relative, 64-aligned), u64 byte_len (= rows·cols·4).
//
// The layout is *canonical* — section offsets chain exactly, padding must
// be zero, blobs pack in directory order — so an accepted artifact
// re-encodes bit-identically (`rebuild() == bytes`; fuzz target "model"
// enforces it) and a publish of identical weights is byte-reproducible.
// Validation runs structural checks first and the whole-file SHA-256 last;
// any deviation throws the typed ModelFormatError, never a wrong model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "monitor/ml_monitor.h"
#include "nn/serialize.h"
#include "util/error.h"

namespace cpsguard::registry {

/// Malformed or corrupted cpsguard.model.v1 bytes: bad magic, truncation,
/// non-canonical layout, implausible dimensions, or a SHA-256 mismatch.
class ModelFormatError : public CpsError {
 public:
  using CpsError::CpsError;
};

inline constexpr char kModelMagic[8] = {'C', 'P', 'S', 'G', 'M', 'D', 'L', '1'};
inline constexpr const char* kModelSchema = "cpsguard.model.v1";
inline constexpr std::uint32_t kModelFormatVersion = 1;
inline constexpr std::size_t kModelHeaderSize = 128;
inline constexpr std::size_t kModelBlobAlign = 64;
inline constexpr std::size_t kModelShaSize = 32;

/// Fixed-header identity of the serialized model.
struct ArtifactInfo {
  monitor::Arch arch = monitor::Arch::kMlp;
  int window = 0;
  int features = 0;
  int classes = 0;
};

/// One tensor: name + shape + a pointer to its floats. Writer input, and
/// what a parsed artifact exposes (pointing into its own buffer).
using TensorEntry = nn::NamedTensor;

/// Serialize one canonical cpsguard.model.v1 byte string (header, sections,
/// aligned blobs, SHA-256 trailer).
std::string build_artifact(const ArtifactInfo& info, std::string_view meta_json,
                           std::string_view scaler_bytes,
                           const std::vector<TensorEntry>& tensors);

/// A parsed-and-verified artifact that owns its bytes: `open` reads the
/// file and `parse` copies a byte string into the same buffer, then both
/// verify it. Section views and tensor data point into that buffer, so
/// they live as long as the artifact (moves keep them valid; copies are
/// refused). Nothing reads the file after `open` returns.
class ModelArtifact {
 public:
  ModelArtifact() = default;
  ModelArtifact(ModelArtifact&&) = default;
  ModelArtifact& operator=(ModelArtifact&&) = default;
  ModelArtifact(const ModelArtifact&) = delete;
  ModelArtifact& operator=(const ModelArtifact&) = delete;

  static ModelArtifact open(const std::string& path);
  static ModelArtifact parse(std::string_view bytes);

  [[nodiscard]] const ArtifactInfo& info() const { return info_; }
  [[nodiscard]] std::string_view meta_json() const { return meta_json_; }
  [[nodiscard]] std::string_view scaler_bytes() const { return scaler_; }
  [[nodiscard]] const std::vector<TensorEntry>& tensors() const {
    return tensors_;
  }
  /// Hex SHA-256 of the whole file (header through trailer) — the
  /// registry's integrity handle for lineage records.
  [[nodiscard]] const std::string& file_sha256_hex() const { return sha_hex_; }
  [[nodiscard]] std::size_t size_bytes() const { return len_; }

  /// Re-encode from the parsed sections. Canonical layout guarantees this
  /// is bit-identical to the accepted input (fuzz invariant).
  [[nodiscard]] std::string rebuild() const;

 private:
  /// Size the buffer for `len` bytes and return its start.
  std::uint8_t* buffer(std::size_t len);
  void verify_and_index(const std::uint8_t* base, std::size_t len);

  // u64-backed: the base is 8-byte aligned and every blob starts at a
  // multiple of 64, so tensor data is float-aligned.
  std::vector<std::uint64_t> owned_;
  std::size_t len_ = 0;

  ArtifactInfo info_;
  std::string_view meta_json_;
  std::string_view scaler_;
  std::vector<TensorEntry> tensors_;
  std::string sha_hex_;
};

}  // namespace cpsguard::registry
