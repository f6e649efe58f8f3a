// SHA-256 (FIPS 180-4) for model artifacts, checkpoint records, run-manifest
// output hashes and the stream oracles. Backed by libcrypto's EVP SHA-256
// (SHA-NI where the CPU has it); OpenSSL stays out of this header, so
// callers neither include nor link it themselves. An integrity/drift
// check, not a security boundary.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

struct evp_md_ctx_st;  // OpenSSL's EVP_MD_CTX

namespace cpsguard::obs {

/// Incremental SHA-256 context. Copying it copies the running state, so a
/// shared prefix is hashed once and finished two ways.
class Sha256 {
 public:
  Sha256();
  Sha256(const Sha256& other);
  Sha256& operator=(const Sha256& other);
  Sha256(Sha256&&) noexcept = default;
  Sha256& operator=(Sha256&&) noexcept = default;
  ~Sha256() = default;

  void update(const void* data, std::size_t len);

  /// Finalize and return the 32-byte digest. The context must not be
  /// updated afterwards.
  [[nodiscard]] std::array<std::uint8_t, 32> digest();

 private:
  struct CtxFree {
    void operator()(evp_md_ctx_st* ctx) const;
  };
  std::unique_ptr<evp_md_ctx_st, CtxFree> ctx_;
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
