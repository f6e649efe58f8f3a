// Binary serialization of model parameters. Used by the experiment cache so
// repeated bench runs skip retraining, and to ship trained monitors.
//
// Format: magic "CPSG", u32 version, u32 param count, then for each param:
// u32 name length + bytes, u32 rows, u32 cols, rows*cols little-endian f32.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "nn/classifier.h"

namespace cpsguard::nn {

void save_params(std::ostream& os, std::span<Param* const> params);

/// Load into existing params: names, order and shapes must match what was
/// saved. Throws CpsError on any mismatch or truncated stream; hostile
/// headers (e.g. a 4 GiB name length) are rejected before any allocation.
void load_params(std::istream& is, std::span<Param* const> params);

/// One named row-major tensor over storage someone else owns: a param
/// handed to the model-artifact writer, or a blob of a parsed artifact.
struct NamedTensor {
  std::string name;
  int rows = 0;
  int cols = 0;
  const float* data = nullptr;
};

/// Copy each tensor into the matching param's own storage. Names, order and
/// shapes must match the classifier exactly; throws CpsError otherwise.
/// Nothing keeps pointing at `tensors` after the call.
void bind_params(std::span<Param* const> params,
                 std::span<const NamedTensor> tensors);

}  // namespace cpsguard::nn
