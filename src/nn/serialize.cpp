#include "nn/serialize.h"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>

#include "util/error.h"

namespace cpsguard::nn {

namespace {

constexpr char kMagic[4] = {'C', 'P', 'S', 'G'};
constexpr std::uint32_t kVersion = 1;

void write_u32(std::ostream& os, std::uint32_t v) {
  unsigned char buf[4] = {static_cast<unsigned char>(v & 0xff),
                          static_cast<unsigned char>((v >> 8) & 0xff),
                          static_cast<unsigned char>((v >> 16) & 0xff),
                          static_cast<unsigned char>((v >> 24) & 0xff)};
  os.write(reinterpret_cast<const char*>(buf), 4);
}

std::uint32_t read_u32(std::istream& is) {
  unsigned char buf[4];
  is.read(reinterpret_cast<char*>(buf), 4);
  if (!is) throw CpsError("model stream truncated");
  return static_cast<std::uint32_t>(buf[0]) |
         (static_cast<std::uint32_t>(buf[1]) << 8) |
         (static_cast<std::uint32_t>(buf[2]) << 16) |
         (static_cast<std::uint32_t>(buf[3]) << 24);
}

}  // namespace

void save_params(std::ostream& os, std::span<Param* const> params) {
  os.write(kMagic, 4);
  write_u32(os, kVersion);
  write_u32(os, static_cast<std::uint32_t>(params.size()));
  for (const Param* p : params) {
    write_u32(os, static_cast<std::uint32_t>(p->name.size()));
    os.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
    write_u32(os, static_cast<std::uint32_t>(p->value.rows()));
    write_u32(os, static_cast<std::uint32_t>(p->value.cols()));
    const auto data = p->value.data();
    os.write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size() * sizeof(float)));
  }
  if (!os) throw CpsError("failed writing model stream");
}

void load_params(std::istream& is, std::span<Param* const> params) {
  char magic[4];
  is.read(magic, 4);
  if (!is || std::string(magic, 4) != std::string(kMagic, 4)) {
    throw CpsError("bad model magic");
  }
  const std::uint32_t version = read_u32(is);
  if (version != kVersion) {
    throw CpsError("unsupported model version " + std::to_string(version));
  }
  const std::uint32_t count = read_u32(is);
  if (count != params.size()) {
    throw CpsError("param count mismatch: stream has " +
                   std::to_string(count) + ", model has " +
                   std::to_string(params.size()));
  }
  for (Param* p : params) {
    // Check the length against the expected name *before* allocating: a
    // corrupt stream declaring name_len = 0xffffffff must not trigger a
    // 4 GiB allocation (allocation bomb, found by fuzz target "serialize").
    const std::uint32_t name_len = read_u32(is);
    if (name_len != p->name.size()) {
      throw CpsError("param mismatch while loading '" + p->name + "'");
    }
    std::string name(name_len, '\0');
    is.read(name.data(), static_cast<std::streamsize>(name_len));
    const std::uint32_t rows = read_u32(is);
    const std::uint32_t cols = read_u32(is);
    if (!is || name != p->name ||
        rows != static_cast<std::uint32_t>(p->value.rows()) ||
        cols != static_cast<std::uint32_t>(p->value.cols())) {
      throw CpsError("param mismatch while loading '" + p->name + "'");
    }
    auto data = p->value.data();
    is.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(float)));
    if (!is) throw CpsError("model stream truncated in '" + p->name + "'");
  }
}

void bind_params(std::span<Param* const> params,
                 std::span<const NamedTensor> tensors) {
  if (tensors.size() != params.size()) {
    throw CpsError("tensor count mismatch: artifact has " +
                   std::to_string(tensors.size()) + ", model has " +
                   std::to_string(params.size()));
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    Param* p = params[i];
    const NamedTensor& t = tensors[i];
    if (t.name != p->name ||
        t.rows != p->value.rows() || t.cols != p->value.cols()) {
      throw CpsError("tensor mismatch while binding '" + p->name +
                     "': artifact has '" + t.name + "' " +
                     std::to_string(t.rows) + "x" + std::to_string(t.cols));
    }
    std::copy(t.data, t.data + p->value.size(), p->value.data().begin());
  }
}

}  // namespace cpsguard::nn
