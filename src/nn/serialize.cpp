#include "nn/serialize.h"

#include <algorithm>

#include "util/error.h"

namespace cpsguard::nn {

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
