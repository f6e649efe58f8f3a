#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <vector>

#include "nn/lstm_classifier.h"
#include "util/error.h"
#include "util/rng.h"

namespace cpsguard::nn {
namespace {

Tensor3 random_tensor(int b, int t, int f, util::Rng& rng) {
  Tensor3 x(b, t, f);
  for (float& v : x.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return x;
}

// The tensors a model artifact would carry for `clf`, pointing into its
// own params.
std::vector<NamedTensor> tensors_of(Classifier& clf) {
  std::vector<NamedTensor> out;
  for (const Param* p : clf.params()) {
    out.push_back({p->name, p->value.rows(), p->value.cols(),
                   p->value.data().data()});
  }
  return out;
}

TEST(Serialize, LoadedModelPredictsIdentically) {
  util::Rng rng(2);
  LstmClassifier a(3, 2, {4}, 2, rng);
  util::Rng rng2(77);
  LstmClassifier b(3, 2, {4}, 2, rng2);
  const std::vector<NamedTensor> tensors = tensors_of(a);
  bind_params(b.params(), tensors);
  util::Rng xr(3);
  const Tensor3 x = random_tensor(4, 3, 2, xr);
  EXPECT_TRUE(a.predict_proba(x) == b.predict_proba(x));
}

TEST(Serialize, RejectsShapeMismatch) {
  util::Rng rng(6);
  MlpClassifier small(1, 2, {3}, 2, rng);
  util::Rng rng2(7);
  MlpClassifier big(1, 2, {9}, 2, rng2);
  const std::vector<NamedTensor> tensors = tensors_of(small);
  EXPECT_THROW(bind_params(big.params(), tensors), CpsError);
}

}  // namespace
}  // namespace cpsguard::nn
