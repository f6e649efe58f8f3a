#include "nn/matrix.h"

#include <algorithm>
#include <cmath>

#include "nn/row_blocks.h"
#include "nn/simd_kernels.h"
#include "util/contracts.h"

namespace cpsguard::nn {

Matrix::Matrix(int rows, int cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), 0.0f) {
  expects(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
}

Matrix::Matrix(int rows, int cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  expects(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
  expects(data_.size() == static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
          "matrix data size must match dimensions");
}

Matrix Matrix::zeros(int rows, int cols) { return Matrix(rows, cols); }

Matrix Matrix::full(int rows, int cols, float value) {
  Matrix m(rows, cols);
  m.fill(value);
  return m;
}

Matrix Matrix::from_rows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return {};
  const int r = static_cast<int>(rows.size());
  const int c = static_cast<int>(rows.front().size());
  Matrix m(r, c);
  for (int i = 0; i < r; ++i) {
    expects(static_cast<int>(rows[static_cast<std::size_t>(i)].size()) == c,
            "ragged rows in from_rows");
    std::copy(rows[static_cast<std::size_t>(i)].begin(),
              rows[static_cast<std::size_t>(i)].end(), m.row(i).begin());
  }
  return m;
}

float& Matrix::at(int r, int c) {
  expects(r >= 0 && r < rows_ && c >= 0 && c < cols_, "matrix index out of range");
  return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
               static_cast<std::size_t>(c)];
}

float Matrix::at(int r, int c) const {
  expects(r >= 0 && r < rows_ && c >= 0 && c < cols_, "matrix index out of range");
  return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
               static_cast<std::size_t>(c)];
}

std::span<float> Matrix::row(int r) {
  expects(r >= 0 && r < rows_, "row index out of range");
  return std::span<float>(data_).subspan(
      static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_),
      static_cast<std::size_t>(cols_));
}

std::span<const float> Matrix::row(int r) const {
  expects(r >= 0 && r < rows_, "row index out of range");
  return std::span<const float>(data_).subspan(
      static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_),
      static_cast<std::size_t>(cols_));
}

void Matrix::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::add_in_place(const Matrix& other) { axpy(1.0f, other); }

void Matrix::axpy(float alpha, const Matrix& other) {
  expects(rows_ == other.rows_ && cols_ == other.cols_, "axpy shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Matrix::scale(float alpha) {
  for (float& v : data_) v *= alpha;
}

void Matrix::hadamard_in_place(const Matrix& other) {
  expects(rows_ == other.rows_ && cols_ == other.cols_, "hadamard shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

void Matrix::add_row_vector(std::span<const float> v) {
  expects(static_cast<int>(v.size()) == cols_, "row-vector length must equal cols");
  for (int r = 0; r < rows_; ++r) {
    auto dst = row(r);
    for (int c = 0; c < cols_; ++c) dst[static_cast<std::size_t>(c)] += v[static_cast<std::size_t>(c)];
  }
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) t.at(c, r) = at(r, c);
  }
  return t;
}

Matrix Matrix::column_sums() const {
  Matrix s(1, cols_);
  for (int r = 0; r < rows_; ++r) {
    const auto src = row(r);
    auto dst = s.row(0);
    for (int c = 0; c < cols_; ++c) dst[static_cast<std::size_t>(c)] += src[static_cast<std::size_t>(c)];
  }
  return s;
}

float Matrix::max_abs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

float Matrix::sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return static_cast<float>(s);
}

std::string Matrix::shape_str() const {
  return std::string("[").append(std::to_string(rows_)).append("x")
      .append(std::to_string(cols_)).append("]");
}

bool operator==(const Matrix& a, const Matrix& b) {
  return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
}

// ---------------------------------------------------------------------------
// Matmul kernels.
//
// All three products use the same design: unroll-friendly register tiles
// (4 output rows x 4 reduction steps) that a baseline-x86-64 compiler
// autovectorizes without -march flags, with every per-element accumulation
// kept in strictly ascending reduction order. That ordering — plus doing
// all arithmetic in float with no FMA contraction at the default target —
// makes the optimized kernels *bit-identical* to the naive triple loops
// they replaced, so cached monitors and figure CSVs are unaffected.
//
// Unlike the previous kernels there is no `a == 0.0f` skip: the skip both
// defeated vectorization (a branch per reduction step) and silently broke
// IEEE semantics by suppressing NaN/Inf propagation from the other operand
// — which matters now that fault injection (kSensorLoss) can legitimately
// push NaN through the monitor path.
//
// Large products additionally shard their output rows across the shared
// thread pool (the rule in nn/row_blocks.h); called from inside a parallel
// region, such as a FeedForward::infer row block, they run inline. Rows are
// computed independently and each element's reduction order never depends
// on the shard split, so parallel results stay bit-identical to serial ones.

namespace {

// Fewest A rows for which matmul_nt stages Bᵀ for the SIMD kernel.
constexpr int kStageTransposeMinRows = 2;

// C[i0..i1) += A[i0..i1) * B for row-major A (n x k), B (k x m), C (n x m).
// 4x4 (rows x reduction) tile; the j loop vectorizes. Per-element order:
// ((((c + t_p) + t_{p+1}) + ...) with p ascending — matches the naive loop.
void matmul_rows(const float* __restrict a, const float* __restrict b,
                 float* __restrict c, int i0, int i1, int k, int m) {
  int i = i0;
  for (; i + 4 <= i1; i += 4) {
    float* __restrict c0 = c + static_cast<std::size_t>(i + 0) * m;
    float* __restrict c1 = c + static_cast<std::size_t>(i + 1) * m;
    float* __restrict c2 = c + static_cast<std::size_t>(i + 2) * m;
    float* __restrict c3 = c + static_cast<std::size_t>(i + 3) * m;
    const float* a0 = a + static_cast<std::size_t>(i + 0) * k;
    const float* a1 = a + static_cast<std::size_t>(i + 1) * k;
    const float* a2 = a + static_cast<std::size_t>(i + 2) * k;
    const float* a3 = a + static_cast<std::size_t>(i + 3) * k;
    int p = 0;
    for (; p + 4 <= k; p += 4) {
      const float* __restrict br0 = b + static_cast<std::size_t>(p + 0) * m;
      const float* __restrict br1 = b + static_cast<std::size_t>(p + 1) * m;
      const float* __restrict br2 = b + static_cast<std::size_t>(p + 2) * m;
      const float* __restrict br3 = b + static_cast<std::size_t>(p + 3) * m;
      for (int j = 0; j < m; ++j) {
        const float b0 = br0[j], b1 = br1[j], b2 = br2[j], b3 = br3[j];
        float s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];
        s0 += a0[p + 0] * b0; s1 += a1[p + 0] * b0; s2 += a2[p + 0] * b0; s3 += a3[p + 0] * b0;
        s0 += a0[p + 1] * b1; s1 += a1[p + 1] * b1; s2 += a2[p + 1] * b1; s3 += a3[p + 1] * b1;
        s0 += a0[p + 2] * b2; s1 += a1[p + 2] * b2; s2 += a2[p + 2] * b2; s3 += a3[p + 2] * b2;
        s0 += a0[p + 3] * b3; s1 += a1[p + 3] * b3; s2 += a2[p + 3] * b3; s3 += a3[p + 3] * b3;
        c0[j] = s0; c1[j] = s1; c2[j] = s2; c3[j] = s3;
      }
    }
    for (; p < k; ++p) {
      const float* __restrict brow = b + static_cast<std::size_t>(p) * m;
      const float v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
      for (int j = 0; j < m; ++j) {
        const float bv = brow[j];
        c0[j] += v0 * bv; c1[j] += v1 * bv; c2[j] += v2 * bv; c3[j] += v3 * bv;
      }
    }
  }
  for (; i < i1; ++i) {  // row tail
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* __restrict crow = c + static_cast<std::size_t>(i) * m;
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* __restrict brow = b + static_cast<std::size_t>(p) * m;
      for (int j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

// C[p0..p1) += (A^T B)[p0..p1) for A (n x k), B (n x m), C (k x m): the
// reduction runs over the shared row index i (ascending, as before); the
// 4-row A slice a[i][p..p+4) is contiguous, so the same tile shape works.
void matmul_tn_rows(const float* __restrict a, const float* __restrict b,
                    float* __restrict c, int p0, int p1, int n, int k, int m) {
  int p = p0;
  for (; p + 4 <= p1; p += 4) {
    float* __restrict c0 = c + static_cast<std::size_t>(p + 0) * m;
    float* __restrict c1 = c + static_cast<std::size_t>(p + 1) * m;
    float* __restrict c2 = c + static_cast<std::size_t>(p + 2) * m;
    float* __restrict c3 = c + static_cast<std::size_t>(p + 3) * m;
    int i = 0;
    for (; i + 4 <= n; i += 4) {
      const float* ar0 = a + static_cast<std::size_t>(i + 0) * k + p;
      const float* ar1 = a + static_cast<std::size_t>(i + 1) * k + p;
      const float* ar2 = a + static_cast<std::size_t>(i + 2) * k + p;
      const float* ar3 = a + static_cast<std::size_t>(i + 3) * k + p;
      const float* __restrict br0 = b + static_cast<std::size_t>(i + 0) * m;
      const float* __restrict br1 = b + static_cast<std::size_t>(i + 1) * m;
      const float* __restrict br2 = b + static_cast<std::size_t>(i + 2) * m;
      const float* __restrict br3 = b + static_cast<std::size_t>(i + 3) * m;
      for (int j = 0; j < m; ++j) {
        const float b0 = br0[j], b1 = br1[j], b2 = br2[j], b3 = br3[j];
        float s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];
        s0 += ar0[0] * b0; s1 += ar0[1] * b0; s2 += ar0[2] * b0; s3 += ar0[3] * b0;
        s0 += ar1[0] * b1; s1 += ar1[1] * b1; s2 += ar1[2] * b1; s3 += ar1[3] * b1;
        s0 += ar2[0] * b2; s1 += ar2[1] * b2; s2 += ar2[2] * b2; s3 += ar2[3] * b2;
        s0 += ar3[0] * b3; s1 += ar3[1] * b3; s2 += ar3[2] * b3; s3 += ar3[3] * b3;
        c0[j] = s0; c1[j] = s1; c2[j] = s2; c3[j] = s3;
      }
    }
    for (; i < n; ++i) {  // reduction tail
      const float* arow = a + static_cast<std::size_t>(i) * k + p;
      const float* __restrict brow = b + static_cast<std::size_t>(i) * m;
      const float v0 = arow[0], v1 = arow[1], v2 = arow[2], v3 = arow[3];
      for (int j = 0; j < m; ++j) {
        const float bv = brow[j];
        c0[j] += v0 * bv; c1[j] += v1 * bv; c2[j] += v2 * bv; c3[j] += v3 * bv;
      }
    }
  }
  for (; p < p1; ++p) {  // output-row tail
    float* __restrict crow = c + static_cast<std::size_t>(p) * m;
    for (int i = 0; i < n; ++i) {
      const float av = a[static_cast<std::size_t>(i) * k + p];
      const float* __restrict brow = b + static_cast<std::size_t>(i) * m;
      for (int j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

// C[i0..i1) = (A B^T)[i0..i1) for A (n x k), B (m x k), C (n x m): each
// element is an independent double-precision dot product in ascending p, as
// before; 2x4 output tiles give eight independent accumulation chains so
// the 4-cycle add latency overlaps instead of serializing.
void matmul_nt_rows(const float* __restrict a, const float* __restrict b,
                    float* __restrict c, int i0, int i1, int k, int m) {
  int i = i0;
  for (; i + 2 <= i1; i += 2) {
    const float* a0 = a + static_cast<std::size_t>(i + 0) * k;
    const float* a1 = a + static_cast<std::size_t>(i + 1) * k;
    float* c0 = c + static_cast<std::size_t>(i + 0) * m;
    float* c1 = c + static_cast<std::size_t>(i + 1) * m;
    int j = 0;
    for (; j + 4 <= m; j += 4) {
      const float* b0 = b + static_cast<std::size_t>(j + 0) * k;
      const float* b1 = b + static_cast<std::size_t>(j + 1) * k;
      const float* b2 = b + static_cast<std::size_t>(j + 2) * k;
      const float* b3 = b + static_cast<std::size_t>(j + 3) * k;
      double s00 = 0.0, s01 = 0.0, s02 = 0.0, s03 = 0.0;
      double s10 = 0.0, s11 = 0.0, s12 = 0.0, s13 = 0.0;
      for (int p = 0; p < k; ++p) {
        const double u0 = a0[p], u1 = a1[p];
        s00 += u0 * b0[p]; s01 += u0 * b1[p]; s02 += u0 * b2[p]; s03 += u0 * b3[p];
        s10 += u1 * b0[p]; s11 += u1 * b1[p]; s12 += u1 * b2[p]; s13 += u1 * b3[p];
      }
      c0[j + 0] = static_cast<float>(s00); c0[j + 1] = static_cast<float>(s01);
      c0[j + 2] = static_cast<float>(s02); c0[j + 3] = static_cast<float>(s03);
      c1[j + 0] = static_cast<float>(s10); c1[j + 1] = static_cast<float>(s11);
      c1[j + 2] = static_cast<float>(s12); c1[j + 3] = static_cast<float>(s13);
    }
    for (; j < m; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      double s0 = 0.0, s1 = 0.0;
      for (int p = 0; p < k; ++p) {
        s0 += static_cast<double>(a0[p]) * brow[p];
        s1 += static_cast<double>(a1[p]) * brow[p];
      }
      c0[j] = static_cast<float>(s0);
      c1[j] = static_cast<float>(s1);
    }
  }
  for (; i < i1; ++i) {  // row tail
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * m;
    for (int j = 0; j < m; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      double acc = 0.0;
      for (int p = 0; p < k; ++p)
        acc += static_cast<double>(arow[p]) * brow[p];
      crow[j] = static_cast<float>(acc);
    }
  }
}

}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b) {
  cpsguard::expects(a.cols() == b.rows(), "matmul inner dimensions must match");
  Matrix c(a.rows(), b.cols());
  const int n = a.rows(), k = a.cols(), m = b.cols();
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  float* cd = c.data().data();
  // Bit-identical by contract (ascending-p mul-then-add, no contraction),
  // so dispatching on CPU width never moves a golden.
  const MatmulRowsFn simd = simd_matmul_rows();
  for_row_blocks(n, 2.0 * k * m, [&](int r0, int r1) {
    if (simd) {
      simd(ad, bd, cd, r0, r1, k, m);
    } else {
      matmul_rows(ad, bd, cd, r0, r1, k, m);
    }
  });
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  cpsguard::expects(a.rows() == b.rows(), "matmul_tn: A^T B needs equal row counts");
  Matrix c(a.cols(), b.cols());
  const int n = a.rows(), k = a.cols(), m = b.cols();
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  float* cd = c.data().data();
  for_row_blocks(k, 2.0 * n * m, [&](int p0, int p1) {
    matmul_tn_rows(ad, bd, cd, p0, p1, n, k, m);
  });
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  cpsguard::expects(a.cols() == b.cols(), "matmul_nt: A B^T needs equal col counts");
  Matrix c(a.rows(), b.rows());
  const int n = a.rows(), k = a.cols(), m = b.rows();
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  float* cd = c.data().data();
  // The SIMD kernel reads Bᵀ. Staging it costs k*m copies, as much as one
  // output row of arithmetic, so a short A keeps the portable kernel. Both
  // kernels round every element identically (see simd_kernels.h).
  const MatmulNtRowsFn simd = simd_matmul_nt_rows();
  if (simd != nullptr && n >= kStageTransposeMinRows) {
    const int ldb = (m + kMatmulNtColumnPad - 1) / kMatmulNtColumnPad *
                    kMatmulNtColumnPad;
    // One buffer per calling thread, reused across calls: a fresh one
    // costs page faults comparable to the transpose itself.
    thread_local std::vector<float> bt;
    bt.resize(static_cast<std::size_t>(k) * ldb);
    for (int j0 = 0; j0 < ldb; j0 += kMatmulNtColumnPad) {
      for (int p = 0; p < k; ++p) {
        float* dst = bt.data() + static_cast<std::size_t>(p) * ldb + j0;
        for (int j = j0; j < j0 + kMatmulNtColumnPad; ++j) {
          *dst++ = j < m ? bd[static_cast<std::size_t>(j) * k + p] : 0.0f;
        }
      }
    }
    // Workers see their own `bt`, so hand them the caller's storage.
    const float* btd = bt.data();
    for_row_blocks(n, 2.0 * k * m, [&](int r0, int r1) {
      simd(ad, btd, cd, r0, r1, k, m, ldb);
    });
    return c;
  }
  for_row_blocks(n, 2.0 * k * m, [&](int r0, int r1) {
    matmul_nt_rows(ad, bd, cd, r0, r1, k, m);
  });
  return c;
}

Matrix subtract(const Matrix& a, const Matrix& b) {
  cpsguard::expects(a.rows() == b.rows() && a.cols() == b.cols(), "subtract shape mismatch");
  Matrix c = a;
  c.axpy(-1.0f, b);
  return c;
}

Matrix add(const Matrix& a, const Matrix& b) {
  cpsguard::expects(a.rows() == b.rows() && a.cols() == b.cols(), "add shape mismatch");
  Matrix c = a;
  c.add_in_place(b);
  return c;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c.hadamard_in_place(b);
  return c;
}

Matrix softmax_rows(const Matrix& logits) {
  Matrix probs(logits.rows(), logits.cols());
  for (int r = 0; r < logits.rows(); ++r) {
    const auto src = logits.row(r);
    auto dst = probs.row(r);
    float mx = src.empty() ? 0.0f : src[0];
    for (float v : src) mx = std::max(mx, v);
    double denom = 0.0;
    for (std::size_t j = 0; j < src.size(); ++j) {
      dst[j] = std::exp(src[j] - mx);
      denom += dst[j];
    }
    for (std::size_t j = 0; j < src.size(); ++j)
      dst[j] = static_cast<float>(dst[j] / denom);
  }
  return probs;
}

int decide(std::span<const float> window, std::span<const float> probs) {
  expects(!probs.empty(), "decision over an empty probability row");
  bool finite = true;
  for (const float v : window) finite &= std::isfinite(v);
  for (const float v : probs) finite &= std::isfinite(v);
  if (!finite) return kNoVerdict;
  std::size_t best = 0;
  for (std::size_t c = 1; c < probs.size(); ++c) {
    if (probs[c] > probs[best]) best = c;
  }
  return static_cast<int>(best);
}

}  // namespace cpsguard::nn
