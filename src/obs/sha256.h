// SHA-256 (FIPS 180-4) for fingerprinting bench outputs in run manifests.
// Self-contained so the manifest layer has no external dependencies; this is
// an integrity/drift check, not a security boundary.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace cpsguard::obs {

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256();

  void update(const void* data, std::size_t len);

  /// Finalize and return the 32-byte digest. The context must not be
  /// updated afterwards.
  [[nodiscard]] std::array<std::uint8_t, 32> digest();

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::uint64_t total_bytes_ = 0;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
};

/// Lowercase hex of a finished digest.
std::string to_hex(const std::array<std::uint8_t, 32>& digest);

/// Lowercase hex digest of a byte buffer.
std::string sha256_hex(const void* data, std::size_t len);
std::string sha256_hex(const std::string& data);

/// Lowercase hex digest of a file's bytes (streaming). Throws
/// std::runtime_error if the file cannot be read.
std::string sha256_file_hex(const std::string& path);

}  // namespace cpsguard::obs
