#include "obs/sha256.h"

#include <openssl/evp.h>

#include <cstdio>
#include <new>
#include <stdexcept>

namespace cpsguard::obs {

namespace {

// Fetched once: an EVP_MD from EVP_sha256() would be re-fetched from the
// provider on every init. Never freed; it lives as long as the process.
const EVP_MD* sha256_md() {
  static const EVP_MD* const md = [] {
    EVP_MD* fetched = EVP_MD_fetch(nullptr, "SHA256", nullptr);
    if (fetched == nullptr) {
      throw std::runtime_error("sha256: libcrypto has no SHA256 digest");
    }
    return fetched;
  }();
  return md;
}

EVP_MD_CTX* new_ctx() {
  EVP_MD_CTX* ctx = EVP_MD_CTX_new();
  if (ctx == nullptr) throw std::bad_alloc();
  return ctx;
}

}  // namespace

void Sha256::CtxFree::operator()(evp_md_ctx_st* ctx) const {
  EVP_MD_CTX_free(ctx);
}

Sha256::Sha256() : ctx_(new_ctx()) {
  if (EVP_DigestInit_ex(ctx_.get(), sha256_md(), nullptr) != 1) {
    throw std::runtime_error("sha256: digest init failed");
  }
}

Sha256::Sha256(const Sha256& other) : ctx_(new_ctx()) {
  if (EVP_MD_CTX_copy_ex(ctx_.get(), other.ctx_.get()) != 1) {
    throw std::runtime_error("sha256: context copy failed");
  }
}

Sha256& Sha256::operator=(const Sha256& other) {
  if (this != &other) *this = Sha256(other);
  return *this;
}

void Sha256::update(const void* data, std::size_t len) {
  if (len == 0) return;
  if (EVP_DigestUpdate(ctx_.get(), data, len) != 1) {
    throw std::runtime_error("sha256: digest update failed");
  }
}

std::array<std::uint8_t, 32> Sha256::digest() {
  std::array<std::uint8_t, 32> out{};
  unsigned int n = 0;
  if (EVP_DigestFinal_ex(ctx_.get(), out.data(), &n) != 1 || n != out.size()) {
    throw std::runtime_error("sha256: digest final failed");
  }
  return out;
}

std::string to_hex(const std::array<std::uint8_t, 32>& digest) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t byte : digest) {
    out += hex[byte >> 4];
    out += hex[byte & 0xf];
  }
  return out;
}

std::string sha256_hex(const void* data, std::size_t len) {
  Sha256 ctx;
  ctx.update(data, len);
  return to_hex(ctx.digest());
}

std::string sha256_hex(const std::string& data) {
  return sha256_hex(data.data(), data.size());
}

std::string sha256_file_hex(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    throw std::runtime_error("sha256: cannot open " + path);
  }
  Sha256 ctx;
  std::uint8_t buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, file)) > 0) {
    ctx.update(buf, n);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) throw std::runtime_error("sha256: read error on " + path);
  return to_hex(ctx.digest());
}

}  // namespace cpsguard::obs
