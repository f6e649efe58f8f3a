#include "nn/matrix.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>

#include "nn/simd_kernels.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace cpsguard::nn {
namespace {

Matrix random_matrix(int r, int c, util::Rng& rng) {
  Matrix m(r, c);
  for (float& v : m.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

// Reference O(n^3) matmul used to pin the optimized variants.
Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (int k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

void expect_near(const Matrix& a, const Matrix& b, float tol = 1e-4f) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(a.at(i, j), b.at(i, j), tol) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  m.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
}

TEST(Matrix, OutOfRangeIndexThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), ContractViolation);
  EXPECT_THROW(m.at(0, -1), ContractViolation);
}

TEST(Matrix, FromRowsAndEquality) {
  const Matrix m = Matrix::from_rows({{1, 2}, {3, 4}});
  EXPECT_FLOAT_EQ(m.at(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(m.at(1, 0), 3.0f);
  EXPECT_TRUE(m == Matrix::from_rows({{1, 2}, {3, 4}}));
  EXPECT_FALSE(m == Matrix::from_rows({{1, 2}, {3, 5}}));
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::from_rows({{1, 2}, {3}}), ContractViolation);
}

TEST(Matrix, FillAndFull) {
  const Matrix m = Matrix::full(2, 2, 3.5f);
  EXPECT_FLOAT_EQ(m.at(1, 1), 3.5f);
  EXPECT_FLOAT_EQ(m.sum(), 14.0f);
}

TEST(Matrix, AxpyAndScale) {
  Matrix a = Matrix::from_rows({{1, 2}});
  const Matrix b = Matrix::from_rows({{10, 20}});
  a.axpy(0.5f, b);
  expect_near(a, Matrix::from_rows({{6, 12}}));
  a.scale(2.0f);
  expect_near(a, Matrix::from_rows({{12, 24}}));
}

TEST(Matrix, AxpyShapeMismatchThrows) {
  Matrix a(1, 2), b(2, 1);
  EXPECT_THROW(a.axpy(1.0f, b), ContractViolation);
}

TEST(Matrix, HadamardInPlace) {
  Matrix a = Matrix::from_rows({{2, 3}});
  a.hadamard_in_place(Matrix::from_rows({{4, 5}}));
  expect_near(a, Matrix::from_rows({{8, 15}}));
}

TEST(Matrix, AddRowVector) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const std::vector<float> bias = {10.0f, 20.0f};
  a.add_row_vector(bias);
  expect_near(a, Matrix::from_rows({{11, 22}, {13, 24}}));
}

TEST(Matrix, Transpose) {
  const Matrix t = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}}).transpose();
  expect_near(t, Matrix::from_rows({{1, 4}, {2, 5}, {3, 6}}));
}

TEST(Matrix, ColumnSums) {
  const Matrix s = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}}).column_sums();
  expect_near(s, Matrix::from_rows({{9, 12}}));
}

TEST(Matrix, MaxAbs) {
  EXPECT_FLOAT_EQ(Matrix::from_rows({{-7, 3}}).max_abs(), 7.0f);
}

TEST(Matmul, MatchesNaive) {
  util::Rng rng(21);
  const Matrix a = random_matrix(7, 11, rng);
  const Matrix b = random_matrix(11, 5, rng);
  expect_near(matmul(a, b), naive_matmul(a, b));
}

TEST(Matmul, IdentityIsNoop) {
  util::Rng rng(22);
  const Matrix a = random_matrix(4, 4, rng);
  Matrix eye(4, 4);
  for (int i = 0; i < 4; ++i) eye.at(i, i) = 1.0f;
  expect_near(matmul(a, eye), a);
}

TEST(Matmul, InnerDimensionMismatchThrows) {
  EXPECT_THROW(matmul(Matrix(2, 3), Matrix(4, 2)), ContractViolation);
}

TEST(MatmulTn, MatchesTransposedNaive) {
  util::Rng rng(23);
  const Matrix a = random_matrix(9, 6, rng);
  const Matrix b = random_matrix(9, 4, rng);
  expect_near(matmul_tn(a, b), naive_matmul(a.transpose(), b));
}

TEST(MatmulNt, MatchesTransposedNaive) {
  util::Rng rng(24);
  const Matrix a = random_matrix(5, 8, rng);
  const Matrix b = random_matrix(6, 8, rng);
  expect_near(matmul_nt(a, b), naive_matmul(a, b.transpose()));
}

// --- Bitwise parity of the blocked kernels against the accumulation-order
// references they are contracted to reproduce exactly (see matrix.h): cached
// monitors and committed figure CSVs depend on these bits not moving.

// Runs `body` under every kernel set this CPU supports, the portable one
// included, so a wide host checks its narrower SIMD kernels too.
template <class Body>
void for_each_kernel(Body body) {
  for (const SimdKernels& kernels : supported_simd_kernels()) {
    SCOPED_TRACE(kernels.name);
    const ScopedSimdKernels use(kernels);
    body();
  }
}

// Float accumulation in ascending reduction order — the naive ikj loop the
// optimized matmul replaced.
Matrix reference_matmul_f32(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int p = 0; p < a.cols(); ++p) {
      const float av = a.at(i, p);
      for (int j = 0; j < b.cols(); ++j) c.at(i, j) += av * b.at(p, j);
    }
  }
  return c;
}

Matrix reference_matmul_tn_f32(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {  // reduction index, ascending
    for (int p = 0; p < a.cols(); ++p) {
      const float av = a.at(i, p);
      for (int j = 0; j < b.cols(); ++j) c.at(p, j) += av * b.at(i, j);
    }
  }
  return c;
}

// matmul_nt accumulates each element in double (ascending p), then rounds.
Matrix reference_matmul_nt_f64(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (int p = 0; p < a.cols(); ++p) {
        acc += static_cast<double>(a.at(i, p)) * b.at(j, p);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(Matmul, BitIdenticalToReferenceAcrossShapes) {
  util::Rng rng(31);
  // Odd shapes exercise every tail loop; 160^3 (2*160^3 ≈ 8.2M flops)
  // crosses the parallel row-sharding threshold.
  // {64, 54, 256} / {64, 256, 128} are the monitor's inference GEMMs (the
  // dispatched wide-SIMD main path); {5, 54, 100} forces the column tail
  // and the row tail of the tiled kernel in one product.
  const std::vector<std::array<int, 3>> shapes = {
      {1, 1, 1},    {3, 5, 2},      {7, 11, 5},      {33, 17, 9},
      {64, 64, 64}, {160, 160, 160}, {64, 54, 256},  {64, 256, 128},
      {5, 54, 100}, {1, 54, 256}};
  for (const auto& [n, k, m] : shapes) {
    const Matrix a = random_matrix(n, k, rng);
    const Matrix b = random_matrix(k, m, rng);
    const Matrix want = reference_matmul_f32(a, b);
    for_each_kernel([&] {
      EXPECT_TRUE(matmul(a, b) == want) << "shape " << n << "x" << k << "x" << m;
    });
  }
}

TEST(MatmulTn, BitIdenticalToReferenceAcrossShapes) {
  util::Rng rng(32);
  const std::vector<std::array<int, 3>> shapes = {
      {1, 1, 1}, {5, 3, 2}, {9, 6, 4}, {17, 33, 9}, {160, 160, 160}};
  for (const auto& [n, k, m] : shapes) {
    const Matrix a = random_matrix(n, k, rng);
    const Matrix b = random_matrix(n, m, rng);
    EXPECT_TRUE(matmul_tn(a, b) == reference_matmul_tn_f32(a, b))
        << "shape " << n << "x" << k << "x" << m;
  }
}

TEST(MatmulNt, BitIdenticalToReferenceAcrossShapes) {
  util::Rng rng(33);
  // {870, 512, 128}, {870, 512, 9}, {870, 256, 64} and {870, 256, 128} are
  // the LSTM backward's input and recurrent products over the Fig. 9 test
  // set (the dispatched SIMD kernel, sharded across the pool); {1, 512, 128}
  // is the single-window case below the Bᵀ-staging threshold; m = 9, 17
  // and 33 leave a partial column strip at every SIMD width.
  const std::vector<std::array<int, 3>> shapes = {
      {1, 1, 1},       {5, 8, 6},       {13, 7, 3},      {31, 19, 11},
      {160, 160, 160}, {870, 512, 128}, {870, 512, 9},   {870, 256, 64},
      {870, 256, 128}, {1, 512, 128},   {6, 40, 9},      {7, 40, 17},
      {9, 40, 33}};
  for (const auto& [n, k, m] : shapes) {
    const Matrix a = random_matrix(n, k, rng);
    const Matrix b = random_matrix(m, k, rng);
    const Matrix want = reference_matmul_nt_f64(a, b);
    for_each_kernel([&] {
      EXPECT_TRUE(matmul_nt(a, b) == want) << "shape " << n << "x" << k << "x" << m;
    });
  }
}

// Double accumulation rounded to float hides most reorderings, so random
// data cannot pin the order. Here the first two products cancel exactly
// (2^60 - 2^60) and the rest survive only when summed after them, in
// ascending p; any other order absorbs them into 2^60 and returns 0.
TEST(MatmulNt, SumsInAscendingReductionOrder) {
  util::Rng rng(36);
  Matrix a = random_matrix(6, 24, rng);
  Matrix b = random_matrix(17, 24, rng);
  for (int i = 0; i < a.rows(); ++i) {
    a.at(i, 0) = 0x1p60f;
    a.at(i, 1) = -0x1p60f;
  }
  for (int j = 0; j < b.rows(); ++j) b.at(j, 0) = b.at(j, 1) = 1.0f;
  for_each_kernel([&] {
    const Matrix got = matmul_nt(a, b);
    EXPECT_TRUE(got == reference_matmul_nt_f64(a, b));
    EXPECT_NE(got.max_abs(), 0.0f);
  });
}

// NaN and ±Inf through every kernel (enough rows to stage Bᵀ): every
// element matches the reference, NaN where the reference is NaN.
TEST(MatmulNt, PropagatesNanAndInfThroughDispatchedKernel) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  util::Rng rng(35);
  Matrix a = random_matrix(9, 20, rng);
  Matrix b = random_matrix(17, 20, rng);
  a.at(1, 3) = nan;   // poisons row 1
  a.at(4, 0) = inf;   // row 4: ±Inf, or NaN where a column meets 0 or -Inf
  b.at(2, 5) = -inf;  // column 2: -Inf times each row's a(i, 5)
  b.at(6, 7) = 0.0f;
  a.at(7, 7) = inf;   // 0 * Inf = NaN at (7, 6)
  const Matrix want = reference_matmul_nt_f64(a, b);
  for_each_kernel([&] {
    const Matrix got = matmul_nt(a, b);
    int nans = 0, infs = 0;
    for (int i = 0; i < got.rows(); ++i) {
      for (int j = 0; j < got.cols(); ++j) {
        const float g = got.at(i, j), w = want.at(i, j);
        if (std::isnan(w)) {
          EXPECT_TRUE(std::isnan(g)) << "at (" << i << "," << j << ")";
          ++nans;
        } else {
          EXPECT_EQ(g, w) << "at (" << i << "," << j << ")";
          infs += std::isinf(w) ? 1 : 0;
        }
      }
    }
    EXPECT_TRUE(std::isnan(got.at(1, 0)));
    EXPECT_TRUE(std::isnan(got.at(7, 6)));
    EXPECT_GT(nans, got.cols());  // row 1 and more
    EXPECT_GT(infs, 0);
  });
}

// The old kernels skipped a == 0.0f reduction steps, which silently
// suppressed NaN/Inf from the other operand. IEEE semantics are now exact:
// 0 * NaN = NaN and 0 * Inf = NaN must propagate (kSensorLoss injects NaN).
TEST(Matmul, PropagatesNanThroughZeroOperand) {
  Matrix a = Matrix::from_rows({{0.0f, 1.0f}});
  Matrix b = Matrix::from_rows({{std::numeric_limits<float>::quiet_NaN(), 2.0f},
                                {3.0f, 4.0f}});
  const Matrix c = matmul(a, b);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));  // 0*NaN + 1*3 = NaN
  EXPECT_FLOAT_EQ(c.at(0, 1), 4.0f);
}

TEST(Matmul, PropagatesInfThroughZeroOperand) {
  Matrix a = Matrix::from_rows({{0.0f, 1.0f}});
  Matrix b = Matrix::from_rows({{std::numeric_limits<float>::infinity(), 2.0f},
                                {3.0f, 4.0f}});
  const Matrix c = matmul(a, b);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));  // 0*Inf = NaN
  EXPECT_FLOAT_EQ(c.at(0, 1), 4.0f);
}

TEST(Matmul, NanInputPoisonsItsOutputRowOnly) {
  util::Rng rng(34);
  Matrix a = random_matrix(3, 4, rng);
  a.at(1, 2) = std::numeric_limits<float>::quiet_NaN();
  const Matrix b = random_matrix(4, 5, rng);
  const Matrix c = matmul(a, b);
  for (int j = 0; j < c.cols(); ++j) {
    EXPECT_FALSE(std::isnan(c.at(0, j)));
    EXPECT_TRUE(std::isnan(c.at(1, j)));
    EXPECT_FALSE(std::isnan(c.at(2, j)));
  }
}

TEST(MatmulTnNt, PropagateNanLikeMatmul) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  {
    const Matrix a = Matrix::from_rows({{0.0f}, {1.0f}});
    const Matrix b = Matrix::from_rows({{nan}, {2.0f}});
    EXPECT_TRUE(std::isnan(matmul_tn(a, b).at(0, 0)));  // 0*NaN + 1*2
  }
  {
    const Matrix a = Matrix::from_rows({{0.0f, 1.0f}});
    const Matrix b = Matrix::from_rows({{nan, 2.0f}});
    EXPECT_TRUE(std::isnan(matmul_nt(a, b).at(0, 0)));
  }
}

TEST(ElementWise, AddSubtractHadamard) {
  const Matrix a = Matrix::from_rows({{1, 2}});
  const Matrix b = Matrix::from_rows({{3, 5}});
  expect_near(add(a, b), Matrix::from_rows({{4, 7}}));
  expect_near(subtract(b, a), Matrix::from_rows({{2, 3}}));
  expect_near(hadamard(a, b), Matrix::from_rows({{3, 10}}));
}

TEST(Softmax, RowsSumToOne) {
  util::Rng rng(25);
  const Matrix logits = random_matrix(6, 4, rng);
  const Matrix p = softmax_rows(logits);
  for (int r = 0; r < p.rows(); ++r) {
    double sum = 0.0;
    for (int c = 0; c < p.cols(); ++c) {
      EXPECT_GT(p.at(r, c), 0.0f);
      sum += p.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Softmax, InvariantToRowShift) {
  const Matrix a = Matrix::from_rows({{1, 2, 3}});
  const Matrix b = Matrix::from_rows({{101, 102, 103}});
  expect_near(softmax_rows(a), softmax_rows(b), 1e-5f);
}

TEST(Softmax, StableForHugeLogits) {
  const Matrix p = softmax_rows(Matrix::from_rows({{1000.0f, 0.0f}}));
  EXPECT_NEAR(p.at(0, 0), 1.0f, 1e-6);
  EXPECT_FALSE(std::isnan(p.at(0, 1)));
}

TEST(Softmax, OrdersMatchLogits) {
  const Matrix p = softmax_rows(Matrix::from_rows({{0.1f, 2.0f, -1.0f}}));
  EXPECT_GT(p.at(0, 1), p.at(0, 0));
  EXPECT_GT(p.at(0, 0), p.at(0, 2));
}

}  // namespace
}  // namespace cpsguard::nn
