// Named weight tensors: the bridge between a classifier's params and the
// cpsguard.model.v1 artifact (registry/artifact.h), the one on-disk model
// format for the registry, the experiment cache and checkpoint snapshots.
#pragma once

#include <span>
#include <string>

#include "nn/classifier.h"

namespace cpsguard::nn {

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
