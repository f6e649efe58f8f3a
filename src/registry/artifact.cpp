#include "registry/artifact.h"

#include <cstring>
#include <fstream>

#include "obs/sha256.h"

namespace cpsguard::registry {

namespace {

// Plausibility caps: far above any real monitor, small enough that a
// corrupt header can't demand a giant allocation or index overflow.
constexpr std::uint64_t kMaxDim = 1u << 16;
constexpr std::uint64_t kMaxTensors = 1024;
constexpr std::uint64_t kMaxNameLen = 256;

std::uint64_t align_up(std::uint64_t v) {
  return (v + (kModelBlobAlign - 1)) & ~(static_cast<std::uint64_t>(kModelBlobAlign) - 1);
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

[[noreturn]] void reject(const std::string& what) {
  throw ModelFormatError("model artifact: " + what);
}

void require(bool ok, const char* what) {
  if (!ok) reject(what);
}

}  // namespace

std::string build_artifact(const ArtifactInfo& info, std::string_view meta_json,
                           std::string_view scaler_bytes,
                           const std::vector<TensorEntry>& tensors) {
  require(!tensors.empty(), "a model needs at least one tensor");
  require(tensors.size() <= kMaxTensors, "too many tensors");

  // Directory + blob layout first, so the header can be written in one pass.
  std::string dir;
  std::uint64_t rel = 0;
  for (const TensorEntry& t : tensors) {
    require(!t.name.empty() && t.name.size() <= kMaxNameLen,
            "bad tensor name length");
    require(t.rows >= 1 && static_cast<std::uint64_t>(t.rows) <= kMaxDim &&
                t.cols >= 1 && static_cast<std::uint64_t>(t.cols) <= kMaxDim,
            "bad tensor shape");
    const std::uint64_t byte_len = static_cast<std::uint64_t>(t.rows) *
                                   static_cast<std::uint64_t>(t.cols) *
                                   sizeof(float);
    put_u32(dir, static_cast<std::uint32_t>(t.name.size()));
    dir.append(t.name);
    put_u32(dir, static_cast<std::uint32_t>(t.rows));
    put_u32(dir, static_cast<std::uint32_t>(t.cols));
    put_u64(dir, rel);
    put_u64(dir, byte_len);
    rel = align_up(rel + byte_len);
  }
  // blob_len ends at the last blob's final byte — no trailing pad.
  std::uint64_t blob_len = 0;
  {
    std::uint64_t r = 0;
    for (const TensorEntry& t : tensors) {
      const std::uint64_t byte_len = static_cast<std::uint64_t>(t.rows) *
                                     static_cast<std::uint64_t>(t.cols) *
                                     sizeof(float);
      blob_len = r + byte_len;
      r = align_up(blob_len);
    }
  }

  const std::uint64_t meta_off = kModelHeaderSize;
  const std::uint64_t scaler_off = meta_off + meta_json.size();
  const std::uint64_t dir_off = scaler_off + scaler_bytes.size();
  const std::uint64_t blob_off = align_up(dir_off + dir.size());
  const std::uint64_t file_len = blob_off + blob_len + kModelShaSize;

  std::string out;
  out.reserve(static_cast<std::size_t>(file_len));
  out.append(kModelMagic, sizeof(kModelMagic));
  put_u32(out, kModelFormatVersion);
  put_u32(out, static_cast<std::uint32_t>(info.arch));
  put_u32(out, static_cast<std::uint32_t>(info.window));
  put_u32(out, static_cast<std::uint32_t>(info.features));
  put_u32(out, static_cast<std::uint32_t>(info.classes));
  put_u32(out, static_cast<std::uint32_t>(tensors.size()));
  put_u64(out, meta_off);
  put_u64(out, meta_json.size());
  put_u64(out, scaler_off);
  put_u64(out, scaler_bytes.size());
  put_u64(out, dir_off);
  put_u64(out, dir.size());
  put_u64(out, blob_off);
  put_u64(out, blob_len);
  put_u64(out, file_len);
  out.append(kModelHeaderSize - out.size(), '\0');

  out.append(meta_json);
  out.append(scaler_bytes);
  out.append(dir);
  out.append(static_cast<std::size_t>(blob_off) - out.size(), '\0');
  for (const TensorEntry& t : tensors) {
    const std::size_t byte_len = static_cast<std::size_t>(t.rows) *
                                 static_cast<std::size_t>(t.cols) *
                                 sizeof(float);
    const std::uint64_t want =
        blob_off + align_up(out.size() - blob_off);  // next aligned slot
    out.append(static_cast<std::size_t>(want) - out.size(), '\0');
    out.append(reinterpret_cast<const char*>(t.data), byte_len);
  }

  obs::Sha256 sha;
  sha.update(out.data(), out.size());
  const auto digest = sha.digest();
  out.append(reinterpret_cast<const char*>(digest.data()), digest.size());
  return out;
}

std::uint8_t* ModelArtifact::buffer(std::size_t len) {
  owned_.assign((len + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t), 0);
  return reinterpret_cast<std::uint8_t*>(owned_.data());
}

ModelArtifact ModelArtifact::open(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in.tellg();  // -1 when the open failed
  if (size < 0) throw CpsError("cannot open model artifact " + path);
  ModelArtifact art;
  const auto len = static_cast<std::size_t>(size);
  std::uint8_t* base = art.buffer(len);
  in.seekg(0);
  // A file cut short while it is read is a typed error here; one rewritten
  // meanwhile fails verification below. Either way no later write to the
  // file reaches the verified bytes.
  if (!in.read(reinterpret_cast<char*>(base), static_cast<std::streamsize>(len))) {
    throw CpsError("cannot read model artifact " + path);
  }
  art.verify_and_index(base, len);
  return art;
}

ModelArtifact ModelArtifact::parse(std::string_view bytes) {
  ModelArtifact art;
  std::uint8_t* base = art.buffer(bytes.size());
  if (!bytes.empty()) std::memcpy(base, bytes.data(), bytes.size());
  art.verify_and_index(base, bytes.size());
  return art;
}

void ModelArtifact::verify_and_index(const std::uint8_t* base,
                                     std::size_t len) {
  len_ = len;
  // Structural validation first, the whole-file SHA-256 last: mutated
  // inputs exercise the parser's bounds logic instead of dying at the
  // checksum, and a checksum pass never excuses a malformed layout.
  require(len >= kModelHeaderSize + kModelShaSize, "truncated");
  require(std::memcmp(base, kModelMagic, sizeof(kModelMagic)) == 0,
          "bad magic");
  const std::uint32_t version = get_u32(base + 8);
  if (version != kModelFormatVersion) {
    reject("unsupported format version " + std::to_string(version));
  }
  const std::uint32_t arch = get_u32(base + 12);
  require(arch <= 2, "unknown architecture tag");
  info_.arch = static_cast<monitor::Arch>(arch);
  const std::uint32_t window = get_u32(base + 16);
  const std::uint32_t features = get_u32(base + 20);
  const std::uint32_t classes = get_u32(base + 24);
  require(window >= 1 && window <= kMaxDim, "implausible window");
  require(features >= 1 && features <= kMaxDim, "implausible feature count");
  require(classes >= 2 && classes <= kMaxDim, "implausible class count");
  info_.window = static_cast<int>(window);
  info_.features = static_cast<int>(features);
  info_.classes = static_cast<int>(classes);
  const std::uint32_t tensor_count = get_u32(base + 28);
  require(tensor_count >= 1 && tensor_count <= kMaxTensors,
          "implausible tensor count");

  const std::uint64_t meta_off = get_u64(base + 32);
  const std::uint64_t meta_len = get_u64(base + 40);
  const std::uint64_t scaler_off = get_u64(base + 48);
  const std::uint64_t scaler_len = get_u64(base + 56);
  const std::uint64_t dir_off = get_u64(base + 64);
  const std::uint64_t dir_len = get_u64(base + 72);
  const std::uint64_t blob_off = get_u64(base + 80);
  const std::uint64_t blob_len = get_u64(base + 88);
  const std::uint64_t file_len = get_u64(base + 96);
  require(file_len == len, "header file length disagrees with actual size");
  for (std::size_t i = 104; i < kModelHeaderSize; ++i) {
    require(base[i] == 0, "nonzero header padding");
  }

  // Canonical section chain. Every length is bounded by the (already
  // validated) file length before it joins a sum, so none of these
  // comparisons can wrap.
  const std::uint64_t payload_end = len - kModelShaSize;
  require(meta_len <= len && scaler_len <= len && dir_len <= len &&
              blob_len <= len,
          "section length exceeds file");
  require(meta_off == kModelHeaderSize, "meta section not at header end");
  require(scaler_off == meta_off + meta_len, "scaler section not contiguous");
  require(dir_off == scaler_off + scaler_len, "directory not contiguous");
  const std::uint64_t dir_end = dir_off + dir_len;
  require(dir_end <= payload_end, "directory overruns file");
  require(blob_off == align_up(dir_end), "blob section not 64-byte aligned");
  require(blob_off + blob_len == payload_end,
          "blob section does not end at the SHA-256 trailer");
  for (std::uint64_t i = dir_end; i < blob_off; ++i) {
    require(base[i] == 0, "nonzero padding before blob section");
  }

  meta_json_ = std::string_view(reinterpret_cast<const char*>(base + meta_off),
                                static_cast<std::size_t>(meta_len));
  scaler_ = std::string_view(reinterpret_cast<const char*>(base + scaler_off),
                             static_cast<std::size_t>(scaler_len));

  // Tensor directory: strict sequential decode, blob offsets must chain in
  // pack order with zeroed alignment gaps.
  tensors_.clear();
  tensors_.reserve(tensor_count);
  std::uint64_t cursor = dir_off;
  std::uint64_t expect_rel = 0;
  for (std::uint32_t i = 0; i < tensor_count; ++i) {
    require(cursor + 4 <= dir_end, "directory truncated");
    const std::uint32_t name_len = get_u32(base + cursor);
    cursor += 4;
    // Bound the length before trusting it — a 4 GiB name must die here,
    // not in an allocation (corpus case model/name-len-alloc-bomb).
    require(name_len >= 1 && name_len <= kMaxNameLen,
            "implausible tensor name length");
    require(cursor + name_len + 8 + 16 <= dir_end, "directory truncated");
    TensorEntry entry;
    entry.name.assign(reinterpret_cast<const char*>(base + cursor), name_len);
    cursor += name_len;
    const std::uint32_t rows = get_u32(base + cursor);
    const std::uint32_t cols = get_u32(base + cursor + 4);
    cursor += 8;
    require(rows >= 1 && rows <= kMaxDim && cols >= 1 && cols <= kMaxDim,
            "implausible tensor shape");
    entry.rows = static_cast<int>(rows);
    entry.cols = static_cast<int>(cols);
    const std::uint64_t rel_off = get_u64(base + cursor);
    const std::uint64_t byte_len = get_u64(base + cursor + 8);
    cursor += 16;
    require(byte_len == static_cast<std::uint64_t>(rows) * cols * sizeof(float),
            "tensor byte length disagrees with its shape");
    require(rel_off == expect_rel, "tensor blob offset breaks canonical pack");
    require(rel_off + byte_len <= blob_len, "tensor blob overruns section");
    entry.data = reinterpret_cast<const float*>(base + blob_off + rel_off);
    tensors_.push_back(std::move(entry));
    const std::uint64_t end = rel_off + byte_len;
    expect_rel = align_up(end);
    if (i + 1 < tensor_count) {
      // Zeroed alignment gap between this blob and the next slot. Bound the
      // gap before walking it — the next entry hasn't been validated yet.
      require(expect_rel <= blob_len, "tensor blob overruns section");
      for (std::uint64_t p = end; p < expect_rel; ++p) {
        require(base[blob_off + p] == 0,
                "nonzero padding between tensor blobs");
      }
    } else {
      require(blob_len == end, "blob section longer than its tensors");
    }
  }
  require(cursor == dir_end, "directory shorter than its section");

  // Whole-file integrity last. The payload is hashed once: a copy of the
  // context takes the trailer too and yields the whole-file digest.
  obs::Sha256 sha;
  sha.update(base, static_cast<std::size_t>(payload_end));
  obs::Sha256 whole = sha;
  const auto digest = sha.digest();
  require(std::memcmp(digest.data(), base + payload_end, kModelShaSize) == 0,
          "SHA-256 mismatch — artifact corrupted");
  whole.update(base + payload_end, kModelShaSize);
  sha_hex_ = obs::to_hex(whole.digest());
}

std::string ModelArtifact::rebuild() const {
  return build_artifact(info_, meta_json_, scaler_, tensors_);
}

}  // namespace cpsguard::registry
