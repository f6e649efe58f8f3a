#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

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

TEST(Serialize, StreamRoundtripPreservesWeights) {
  util::Rng rng(1);
  MlpClassifier a(2, 3, {5}, 2, rng);
  util::Rng rng2(99);
  MlpClassifier b(2, 3, {5}, 2, rng2);

  std::stringstream ss;
  {
    const auto ps = a.params();
    save_params(ss, ps);
  }
  {
    const auto ps = b.params();
    load_params(ss, ps);
  }
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i]->value == pb[i]->value) << pa[i]->name;
  }
}

TEST(Serialize, LoadedModelPredictsIdentically) {
  util::Rng rng(2);
  LstmClassifier a(3, 2, {4}, 2, rng);
  util::Rng rng2(77);
  LstmClassifier b(3, 2, {4}, 2, rng2);
  std::stringstream ss;
  {
    const auto ps = a.params();
    save_params(ss, ps);
  }
  {
    const auto ps = b.params();
    load_params(ss, ps);
  }
  util::Rng xr(3);
  const Tensor3 x = random_tensor(4, 3, 2, xr);
  EXPECT_TRUE(a.predict_proba(x) == b.predict_proba(x));
}

TEST(Serialize, RejectsBadMagic) {
  util::Rng rng(4);
  MlpClassifier clf(1, 2, {3}, 2, rng);
  std::stringstream ss("XXXXGARBAGE");
  const auto ps = clf.params();
  EXPECT_THROW(load_params(ss, ps), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedStream) {
  util::Rng rng(5);
  MlpClassifier clf(1, 2, {3}, 2, rng);
  std::stringstream ss;
  {
    const auto ps = clf.params();
    save_params(ss, ps);
  }
  std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  const auto ps = clf.params();
  EXPECT_THROW(load_params(truncated, ps), std::runtime_error);
}

TEST(Serialize, RejectsShapeMismatch) {
  util::Rng rng(6);
  MlpClassifier small(1, 2, {3}, 2, rng);
  util::Rng rng2(7);
  MlpClassifier big(1, 2, {9}, 2, rng2);
  std::stringstream ss;
  {
    const auto ps = small.params();
    save_params(ss, ps);
  }
  const auto ps = big.params();
  EXPECT_THROW(load_params(ss, ps), std::runtime_error);
}

// Regression (fuzz target "serialize"): a corrupt stream declaring
// name_len = 0xffffffff allocated 4 GiB before any validation. The length
// is now checked against the expected param name first.
TEST(Serialize, CorruptNameLengthIsNotAnAllocationBomb) {
  Param p("w1", Matrix::full(2, 2, 1.0f));
  std::vector<Param*> ptrs = {&p};
  std::string bomb("CPSG", 4);
  const auto put_u32 = [&bomb](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) bomb += static_cast<char>((v >> (8 * b)) & 0xff);
  };
  put_u32(1);            // version
  put_u32(1);            // param count
  put_u32(0xffffffffu);  // hostile name length
  std::istringstream is(bomb);
  EXPECT_THROW(load_params(is, ptrs), CpsError);
}

TEST(Serialize, TruncatedStreamIsTypedError) {
  Param p("w1", Matrix::full(2, 2, 1.0f));
  std::vector<Param*> ptrs = {&p};
  std::ostringstream os;
  save_params(os, ptrs);
  const std::string full = os.str();
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3}, full.size() / 2,
                                full.size() - 1}) {
    std::istringstream is(full.substr(0, cut));
    EXPECT_THROW(load_params(is, ptrs), CpsError) << "cut at " << cut;
  }
}

}  // namespace
}  // namespace cpsguard::nn
