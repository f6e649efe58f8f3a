// Wide-SIMD GEMM and gate kernels (see simd_kernels.h for the determinism
// contract).
//
// This translation unit MUST be compiled with -ffp-contract=off (enforced
// in CMakeLists.txt): the AVX targets have FMA, and a contracted fma(a,b,c)
// rounds once where mul-then-add rounds twice — bitwise divergence from the
// portable kernels. The explicit _mm512_mul_ps/_mm512_add_ps pairs and the
// flag together guarantee the compiler never fuses. The explicit fused
// steps are deliberate: the matmul_nt kernels accumulate exact float×float
// products in double, where a fused multiply-add rounds exactly like
// mul-then-add (see simd_kernels.h), and the gate kernels fuse expf's
// argument reduction exactly where the scalar port calls std::fma.
#include "nn/simd_kernels.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/gate_math.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define CPSGUARD_SIMD_X86 1
#include <immintrin.h>
#endif

namespace cpsguard::nn {

#ifdef CPSGUARD_SIMD_X86

namespace {

// The portable 4x4 (rows x reduction) tile from matrix.cpp, reproduced
// verbatim so the target pragmas can re-vectorize the j loop at the host's
// full width. Keep in sync with matmul_rows in matrix.cpp — the
// Matmul.BitIdenticalToReferenceAcrossShapes suite pins both to the same
// ascending-p operation order.
#define CPSGUARD_DEFINE_MATMUL_ROWS_BODY(NAME)                                 \
  void NAME(const float* __restrict a, const float* __restrict b,              \
            float* __restrict c, int i0, int i1, int k, int m) {               \
    int i = i0;                                                                \
    for (; i + 4 <= i1; i += 4) {                                              \
      float* __restrict c0 = c + static_cast<std::size_t>(i + 0) * m;          \
      float* __restrict c1 = c + static_cast<std::size_t>(i + 1) * m;          \
      float* __restrict c2 = c + static_cast<std::size_t>(i + 2) * m;          \
      float* __restrict c3 = c + static_cast<std::size_t>(i + 3) * m;          \
      const float* a0 = a + static_cast<std::size_t>(i + 0) * k;               \
      const float* a1 = a + static_cast<std::size_t>(i + 1) * k;               \
      const float* a2 = a + static_cast<std::size_t>(i + 2) * k;               \
      const float* a3 = a + static_cast<std::size_t>(i + 3) * k;               \
      int p = 0;                                                               \
      for (; p + 4 <= k; p += 4) {                                             \
        const float* __restrict br0 = b + static_cast<std::size_t>(p + 0) * m; \
        const float* __restrict br1 = b + static_cast<std::size_t>(p + 1) * m; \
        const float* __restrict br2 = b + static_cast<std::size_t>(p + 2) * m; \
        const float* __restrict br3 = b + static_cast<std::size_t>(p + 3) * m; \
        for (int j = 0; j < m; ++j) {                                          \
          const float b0 = br0[j], b1 = br1[j], b2 = br2[j], b3 = br3[j];      \
          float s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];                \
          s0 += a0[p + 0] * b0; s1 += a1[p + 0] * b0;                          \
          s2 += a2[p + 0] * b0; s3 += a3[p + 0] * b0;                          \
          s0 += a0[p + 1] * b1; s1 += a1[p + 1] * b1;                          \
          s2 += a2[p + 1] * b1; s3 += a3[p + 1] * b1;                          \
          s0 += a0[p + 2] * b2; s1 += a1[p + 2] * b2;                          \
          s2 += a2[p + 2] * b2; s3 += a3[p + 2] * b2;                          \
          s0 += a0[p + 3] * b3; s1 += a1[p + 3] * b3;                          \
          s2 += a2[p + 3] * b3; s3 += a3[p + 3] * b3;                          \
          c0[j] = s0; c1[j] = s1; c2[j] = s2; c3[j] = s3;                      \
        }                                                                      \
      }                                                                        \
      for (; p < k; ++p) {                                                     \
        const float* __restrict brow = b + static_cast<std::size_t>(p) * m;    \
        const float v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];            \
        for (int j = 0; j < m; ++j) {                                          \
          const float bv = brow[j];                                            \
          c0[j] += v0 * bv; c1[j] += v1 * bv;                                  \
          c2[j] += v2 * bv; c3[j] += v3 * bv;                                  \
        }                                                                      \
      }                                                                        \
    }                                                                          \
    for (; i < i1; ++i) {                                                      \
      const float* arow = a + static_cast<std::size_t>(i) * k;                 \
      float* __restrict crow = c + static_cast<std::size_t>(i) * m;            \
      for (int p = 0; p < k; ++p) {                                            \
        const float av = arow[p];                                              \
        const float* __restrict brow = b + static_cast<std::size_t>(p) * m;    \
        for (int j = 0; j < m; ++j) crow[j] += av * brow[j];                   \
      }                                                                        \
    }                                                                          \
  }

// A·Bᵀ row tiles share one shape across widths: 4 output rows at a time,
// their A values widened to double once per tile ([p][row] order, so the
// four broadcasts of a step read adjacent doubles; missing tail rows are
// zero and their results discarded), then column strips of the staged Bᵀ
// accumulated over the whole reduction in registers.
inline constexpr int kNtTileRows = 4;

void widen_nt_rows(const float* a, int i, int rows, int k, double* out) {
  for (int p = 0; p < k; ++p) {
    for (int r = 0; r < kNtTileRows; ++r) {
      out[static_cast<std::size_t>(p) * kNtTileRows + r] =
          r < rows ? a[static_cast<std::size_t>(i + r) * k + p] : 0.0;
    }
  }
}

#pragma GCC push_options
#pragma GCC target("avx2")
CPSGUARD_DEFINE_MATMUL_ROWS_BODY(matmul_rows_avx2)
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2,fma")

// 4 rows x 8 columns: two ymm of four double lanes per row. The eight
// accumulators are named, not an array, so they stay in registers.
void matmul_nt_rows_avx2(const float* a, const float* bt, float* c, int i0,
                         int i1, int k, int m, int ldb) {
  std::vector<double> aw(static_cast<std::size_t>(k) * kNtTileRows);
  for (int i = i0; i < i1; i += kNtTileRows) {
    const int rows = std::min(kNtTileRows, i1 - i);
    widen_nt_rows(a, i, rows, k, aw.data());
    for (int j = 0; j < m; j += 8) {
      __m256d s00 = _mm256_setzero_pd(), s01 = s00, s10 = s00, s11 = s00;
      __m256d s20 = s00, s21 = s00, s30 = s00, s31 = s00;
      const double* u = aw.data();
      for (int p = 0; p < k; ++p, u += kNtTileRows) {
        const float* bp = bt + static_cast<std::size_t>(p) * ldb + j;
        const __m256d b0 = _mm256_cvtps_pd(_mm_loadu_ps(bp));
        const __m256d b1 = _mm256_cvtps_pd(_mm_loadu_ps(bp + 4));
        const __m256d u0 = _mm256_broadcast_sd(u + 0);
        const __m256d u1 = _mm256_broadcast_sd(u + 1);
        const __m256d u2 = _mm256_broadcast_sd(u + 2);
        const __m256d u3 = _mm256_broadcast_sd(u + 3);
        s00 = _mm256_fmadd_pd(u0, b0, s00); s01 = _mm256_fmadd_pd(u0, b1, s01);
        s10 = _mm256_fmadd_pd(u1, b0, s10); s11 = _mm256_fmadd_pd(u1, b1, s11);
        s20 = _mm256_fmadd_pd(u2, b0, s20); s21 = _mm256_fmadd_pd(u2, b1, s21);
        s30 = _mm256_fmadd_pd(u3, b0, s30); s31 = _mm256_fmadd_pd(u3, b1, s31);
      }
      const auto store = [&](int r, __m256d lo, __m256d hi) {
        if (r >= rows) return;
        alignas(32) float tile[8];
        _mm_store_ps(tile, _mm256_cvtpd_ps(lo));
        _mm_store_ps(tile + 4, _mm256_cvtpd_ps(hi));
        std::memcpy(c + static_cast<std::size_t>(i + r) * m + j, tile,
                    static_cast<std::size_t>(std::min(8, m - j)) * sizeof(float));
      };
      store(0, s00, s01); store(1, s10, s11);
      store(2, s20, s21); store(3, s30, s31);
    }
  }
}

#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")

// AVX-512 fallback for row/column tails: the portable body, 16-wide.
CPSGUARD_DEFINE_MATMUL_ROWS_BODY(matmul_rows_avx512_generic)

// Register-tiled main path: 4 output rows x 32 output columns (2 zmm)
// accumulate in registers across the whole reduction, so each C tile is
// read and written exactly once. Per element the sequence is still
// (((c + a[0]*b[0]) + a[1]*b[1]) + ...) in ascending p — mul then add,
// never fused — so results match the portable kernel bit for bit.
void matmul_rows_avx512(const float* __restrict a, const float* __restrict b,
                        float* __restrict c, int i0, int i1, int k, int m) {
  const int mv = m & ~31;
  int i = i0;
  for (; i + 4 <= i1; i += 4) {
    const float* a0 = a + static_cast<std::size_t>(i + 0) * k;
    const float* a1 = a + static_cast<std::size_t>(i + 1) * k;
    const float* a2 = a + static_cast<std::size_t>(i + 2) * k;
    const float* a3 = a + static_cast<std::size_t>(i + 3) * k;
    float* c0 = c + static_cast<std::size_t>(i + 0) * m;
    float* c1 = c + static_cast<std::size_t>(i + 1) * m;
    float* c2 = c + static_cast<std::size_t>(i + 2) * m;
    float* c3 = c + static_cast<std::size_t>(i + 3) * m;
    for (int j = 0; j < mv; j += 32) {
      __m512 s00 = _mm512_loadu_ps(c0 + j), s01 = _mm512_loadu_ps(c0 + j + 16);
      __m512 s10 = _mm512_loadu_ps(c1 + j), s11 = _mm512_loadu_ps(c1 + j + 16);
      __m512 s20 = _mm512_loadu_ps(c2 + j), s21 = _mm512_loadu_ps(c2 + j + 16);
      __m512 s30 = _mm512_loadu_ps(c3 + j), s31 = _mm512_loadu_ps(c3 + j + 16);
      for (int p = 0; p < k; ++p) {
        const float* brow = b + static_cast<std::size_t>(p) * m + j;
        const __m512 b0 = _mm512_loadu_ps(brow);
        const __m512 b1 = _mm512_loadu_ps(brow + 16);
        const __m512 v0 = _mm512_set1_ps(a0[p]);
        const __m512 v1 = _mm512_set1_ps(a1[p]);
        const __m512 v2 = _mm512_set1_ps(a2[p]);
        const __m512 v3 = _mm512_set1_ps(a3[p]);
        s00 = _mm512_add_ps(s00, _mm512_mul_ps(v0, b0));
        s01 = _mm512_add_ps(s01, _mm512_mul_ps(v0, b1));
        s10 = _mm512_add_ps(s10, _mm512_mul_ps(v1, b0));
        s11 = _mm512_add_ps(s11, _mm512_mul_ps(v1, b1));
        s20 = _mm512_add_ps(s20, _mm512_mul_ps(v2, b0));
        s21 = _mm512_add_ps(s21, _mm512_mul_ps(v2, b1));
        s30 = _mm512_add_ps(s30, _mm512_mul_ps(v3, b0));
        s31 = _mm512_add_ps(s31, _mm512_mul_ps(v3, b1));
      }
      _mm512_storeu_ps(c0 + j, s00); _mm512_storeu_ps(c0 + j + 16, s01);
      _mm512_storeu_ps(c1 + j, s10); _mm512_storeu_ps(c1 + j + 16, s11);
      _mm512_storeu_ps(c2 + j, s20); _mm512_storeu_ps(c2 + j + 16, s21);
      _mm512_storeu_ps(c3 + j, s30); _mm512_storeu_ps(c3 + j + 16, s31);
    }
    for (int j = mv; j < m; ++j) {  // column tail, same ascending-p order
      float s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];
      for (int p = 0; p < k; ++p) {
        const float bv = b[static_cast<std::size_t>(p) * m + j];
        s0 += a0[p] * bv; s1 += a1[p] * bv;
        s2 += a2[p] * bv; s3 += a3[p] * bv;
      }
      c0[j] = s0; c1[j] = s1; c2[j] = s2; c3[j] = s3;
    }
  }
  if (i < i1) {  // row tail (including the batch-1 matvec case)
    matmul_rows_avx512_generic(a, b, c, i, i1, k, m);
  }
}

// GCC 12 flags the _mm512_undefined_* source operand inside the
// float<->double conversion intrinsics as maybe-uninitialized.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// 4 rows x 16 columns: two zmm of eight double lanes per row.
void matmul_nt_rows_avx512(const float* a, const float* bt, float* c, int i0,
                           int i1, int k, int m, int ldb) {
  std::vector<double> aw(static_cast<std::size_t>(k) * kNtTileRows);
  for (int i = i0; i < i1; i += kNtTileRows) {
    const int rows = std::min(kNtTileRows, i1 - i);
    widen_nt_rows(a, i, rows, k, aw.data());
    for (int j = 0; j < m; j += 16) {
      __m512d s00 = _mm512_setzero_pd(), s01 = s00, s10 = s00, s11 = s00;
      __m512d s20 = s00, s21 = s00, s30 = s00, s31 = s00;
      const double* u = aw.data();
      for (int p = 0; p < k; ++p, u += kNtTileRows) {
        const float* bp = bt + static_cast<std::size_t>(p) * ldb + j;
        const __m512d b0 = _mm512_cvtps_pd(_mm256_loadu_ps(bp));
        const __m512d b1 = _mm512_cvtps_pd(_mm256_loadu_ps(bp + 8));
        const __m512d u0 = _mm512_set1_pd(u[0]);
        const __m512d u1 = _mm512_set1_pd(u[1]);
        const __m512d u2 = _mm512_set1_pd(u[2]);
        const __m512d u3 = _mm512_set1_pd(u[3]);
        s00 = _mm512_fmadd_pd(u0, b0, s00); s01 = _mm512_fmadd_pd(u0, b1, s01);
        s10 = _mm512_fmadd_pd(u1, b0, s10); s11 = _mm512_fmadd_pd(u1, b1, s11);
        s20 = _mm512_fmadd_pd(u2, b0, s20); s21 = _mm512_fmadd_pd(u2, b1, s21);
        s30 = _mm512_fmadd_pd(u3, b0, s30); s31 = _mm512_fmadd_pd(u3, b1, s31);
      }
      const auto store = [&](int r, __m512d lo, __m512d hi) {
        if (r >= rows) return;
        alignas(32) float tile[16];
        _mm256_store_ps(tile, _mm512_cvtpd_ps(lo));
        _mm256_store_ps(tile + 8, _mm512_cvtpd_ps(hi));
        std::memcpy(c + static_cast<std::size_t>(i + r) * m + j, tile,
                    static_cast<std::size_t>(std::min(16, m - j)) * sizeof(float));
      };
      store(0, s00, s01); store(1, s10, s11);
      store(2, s20, s21); store(3, s30, s31);
    }
  }
}

#pragma GCC diagnostic pop

#pragma GCC pop_options

#undef CPSGUARD_DEFINE_MATMUL_ROWS_BODY

// ---- gate kernels: gate_kernels.inc over each width's lane operations ----

namespace gm = gate_math;

#pragma GCC push_options
#pragma GCC target("avx512f")
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"  // as for matmul_nt

namespace avx512 {

using F = __m512;
using I = __m512i;
using M = __mmask16;
using D = __m512d;
using L = __m512i;
inline constexpr int kLanes = 16;

inline F fset(float v) { return _mm512_set1_ps(v); }
inline I iset(int v) { return _mm512_set1_epi32(v); }
inline D dset(double v) { return _mm512_set1_pd(v); }
inline F add(F a, F b) { return _mm512_add_ps(a, b); }
inline F sub(F a, F b) { return _mm512_sub_ps(a, b); }
inline F mul(F a, F b) { return _mm512_mul_ps(a, b); }
inline F div(F a, F b) { return _mm512_div_ps(a, b); }
inline D add(D a, D b) { return _mm512_add_pd(a, b); }
inline D sub(D a, D b) { return _mm512_sub_pd(a, b); }
inline D mul(D a, D b) { return _mm512_mul_pd(a, b); }
inline D fmsub(D a, D b, D c) { return _mm512_fmsub_pd(a, b, c); }
inline I add(I a, I b) { return _mm512_add_epi32(a, b); }
inline I sub(I a, I b) { return _mm512_sub_epi32(a, b); }
inline I iand(I a, I b) { return _mm512_and_si512(a, b); }
inline I ixor(I a, I b) { return _mm512_xor_si512(a, b); }
inline F select(M m, F a, F b) { return _mm512_mask_blend_ps(m, b, a); }
inline I select(M m, I a, I b) { return _mm512_mask_blend_epi32(m, b, a); }
inline M lt(F a, F b) { return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ); }
inline M gt(F a, F b) { return _mm512_cmp_ps_mask(a, b, _CMP_GT_OQ); }
inline M ge(F a, F b) { return _mm512_cmp_ps_mask(a, b, _CMP_GE_OQ); }
inline M unordered(F a, F b) { return _mm512_cmp_ps_mask(a, b, _CMP_UNORD_Q); }
inline M lt(I a, I b) { return _mm512_cmplt_epi32_mask(a, b); }
inline M gt(I a, I b) { return _mm512_cmpgt_epi32_mask(a, b); }
inline M ge(I a, I b) { return _mm512_cmpge_epi32_mask(a, b); }
inline M eq(I a, I b) { return _mm512_cmpeq_epi32_mask(a, b); }
inline M either(M a, M b) { return static_cast<M>(a | b); }
inline bool any(M m) { return m != 0; }
inline I bits(F x) { return _mm512_castps_si512(x); }
inline F floats(I x) { return _mm512_castsi512_ps(x); }
inline I truncate(F x) { return _mm512_cvttps_epi32(x); }
inline F to_float(I x) { return _mm512_cvtepi32_ps(x); }
inline I srlv(I a, I count) { return _mm512_srlv_epi32(a, count); }
inline I shl23(I a) { return _mm512_slli_epi32(a, 23); }
inline D widen_lo(F x) { return _mm512_cvtps_pd(_mm512_castps512_ps256(x)); }
inline D widen_hi(F x) {
  return _mm512_cvtps_pd(
      _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(x), 1)));
}
inline F narrow_join(D lo, D hi) {
  const __m512d low = _mm512_castps_pd(_mm512_castps256_ps512(_mm512_cvtpd_ps(lo)));
  return _mm512_castpd_ps(
      _mm512_insertf64x4(low, _mm256_castps_pd(_mm512_cvtpd_ps(hi)), 1));
}
inline L dbits(D x) { return _mm512_castpd_si512(x); }
inline D doubles(L x) { return _mm512_castsi512_pd(x); }
inline L shl47(L x) { return _mm512_slli_epi64(x, 47); }
inline L add_i64(L a, L b) { return _mm512_add_epi64(a, b); }
// The 32-entry table sits in four registers: permutex2var picks one of 16
// entries from a pair by index bits 0-3, and bit 4 picks the pair.
inline L exp_table(L ki) {
  const L idx = _mm512_and_si512(ki, _mm512_set1_epi64(gm::kExpTableSize - 1));
  const std::uint64_t* t = gm::kExpTable;
  const L low = _mm512_permutex2var_epi64(_mm512_loadu_si512(t), idx,
                                          _mm512_loadu_si512(t + 8));
  const L high = _mm512_permutex2var_epi64(_mm512_loadu_si512(t + 16), idx,
                                           _mm512_loadu_si512(t + 24));
  return _mm512_mask_blend_epi64(
      _mm512_test_epi64_mask(idx, _mm512_set1_epi64(16)), low, high);
}
inline F load(const float* p) { return _mm512_loadu_ps(p); }
inline void store(float* p, F v) { _mm512_storeu_ps(p, v); }
inline M first(int n) { return static_cast<M>((1u << n) - 1u); }
inline F load_partial(const float* p, int n) {
  return _mm512_maskz_loadu_ps(first(n), p);
}
inline void store_partial(float* p, F v, int n) {
  _mm512_mask_storeu_ps(p, first(n), v);
}

#include "nn/gate_kernels.inc"

}  // namespace avx512

#pragma GCC diagnostic pop
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2,fma")

namespace avx2 {

using F = __m256;
using I = __m256i;
using M = __m256i;  // all-ones lanes where true
using D = __m256d;
using L = __m256i;
inline constexpr int kLanes = 8;

inline F fset(float v) { return _mm256_set1_ps(v); }
inline I iset(int v) { return _mm256_set1_epi32(v); }
inline D dset(double v) { return _mm256_set1_pd(v); }
inline F add(F a, F b) { return _mm256_add_ps(a, b); }
inline F sub(F a, F b) { return _mm256_sub_ps(a, b); }
inline F mul(F a, F b) { return _mm256_mul_ps(a, b); }
inline F div(F a, F b) { return _mm256_div_ps(a, b); }
inline D add(D a, D b) { return _mm256_add_pd(a, b); }
inline D sub(D a, D b) { return _mm256_sub_pd(a, b); }
inline D mul(D a, D b) { return _mm256_mul_pd(a, b); }
inline D fmsub(D a, D b, D c) { return _mm256_fmsub_pd(a, b, c); }
inline I add(I a, I b) { return _mm256_add_epi32(a, b); }
inline I sub(I a, I b) { return _mm256_sub_epi32(a, b); }
inline I iand(I a, I b) { return _mm256_and_si256(a, b); }
inline I ixor(I a, I b) { return _mm256_xor_si256(a, b); }
inline F select(M m, F a, F b) {
  return _mm256_blendv_ps(b, a, _mm256_castsi256_ps(m));
}
inline I select(M m, I a, I b) { return _mm256_blendv_epi8(b, a, m); }
inline M lt(F a, F b) { return _mm256_castps_si256(_mm256_cmp_ps(a, b, _CMP_LT_OQ)); }
inline M gt(F a, F b) { return _mm256_castps_si256(_mm256_cmp_ps(a, b, _CMP_GT_OQ)); }
inline M ge(F a, F b) { return _mm256_castps_si256(_mm256_cmp_ps(a, b, _CMP_GE_OQ)); }
inline M unordered(F a, F b) {
  return _mm256_castps_si256(_mm256_cmp_ps(a, b, _CMP_UNORD_Q));
}
inline M lt(I a, I b) { return _mm256_cmpgt_epi32(b, a); }
inline M gt(I a, I b) { return _mm256_cmpgt_epi32(a, b); }
inline M ge(I a, I b) { return _mm256_xor_si256(lt(a, b), _mm256_set1_epi32(-1)); }
inline M eq(I a, I b) { return _mm256_cmpeq_epi32(a, b); }
inline M either(M a, M b) { return _mm256_or_si256(a, b); }
inline bool any(M m) { return _mm256_testz_si256(m, m) == 0; }
inline I bits(F x) { return _mm256_castps_si256(x); }
inline F floats(I x) { return _mm256_castsi256_ps(x); }
inline I truncate(F x) { return _mm256_cvttps_epi32(x); }
inline F to_float(I x) { return _mm256_cvtepi32_ps(x); }
inline I srlv(I a, I count) { return _mm256_srlv_epi32(a, count); }
inline I shl23(I a) { return _mm256_slli_epi32(a, 23); }
inline D widen_lo(F x) { return _mm256_cvtps_pd(_mm256_castps256_ps128(x)); }
inline D widen_hi(F x) { return _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1)); }
inline F narrow_join(D lo, D hi) {
  return _mm256_insertf128_ps(_mm256_castps128_ps256(_mm256_cvtpd_ps(lo)),
                              _mm256_cvtpd_ps(hi), 1);
}
inline L dbits(D x) { return _mm256_castpd_si256(x); }
inline D doubles(L x) { return _mm256_castsi256_pd(x); }
inline L shl47(L x) { return _mm256_slli_epi64(x, 47); }
inline L add_i64(L a, L b) { return _mm256_add_epi64(a, b); }
inline L exp_table(L ki) {
  const L idx = _mm256_and_si256(ki, _mm256_set1_epi64x(gm::kExpTableSize - 1));
  return _mm256_i64gather_epi64(reinterpret_cast<const long long*>(gm::kExpTable),
                                idx, 8);
}
inline F load(const float* p) { return _mm256_loadu_ps(p); }
inline void store(float* p, F v) { _mm256_storeu_ps(p, v); }
inline F load_partial(const float* p, int n) {
  alignas(32) float buf[kLanes] = {};
  std::memcpy(buf, p, static_cast<std::size_t>(n) * sizeof(float));
  return _mm256_load_ps(buf);
}
inline void store_partial(float* p, F v, int n) {
  alignas(32) float buf[kLanes];
  _mm256_store_ps(buf, v);
  std::memcpy(p, buf, static_cast<std::size_t>(n) * sizeof(float));
}

#include "nn/gate_kernels.inc"

}  // namespace avx2

#pragma GCC pop_options

std::vector<SimdKernels> detect_kernels() {
  std::vector<SimdKernels> sets;
  if (__builtin_cpu_supports("avx512f")) {
    sets.push_back({"avx512f", &matmul_rows_avx512, &matmul_nt_rows_avx512,
                    &avx512::sigmoid_rows, &avx512::tanh_rows});
  }
  if (__builtin_cpu_supports("avx2")) {
    const bool fma = __builtin_cpu_supports("fma");
    sets.push_back({"avx2", &matmul_rows_avx2,
                    fma ? &matmul_nt_rows_avx2 : nullptr,
                    fma ? &avx2::sigmoid_rows : nullptr,
                    fma ? &avx2::tanh_rows : nullptr});
  }
  sets.push_back({"portable", nullptr, nullptr, nullptr, nullptr});
  return sets;
}

}  // namespace

#else  // !CPSGUARD_SIMD_X86

namespace {

std::vector<SimdKernels> detect_kernels() {
  return {{"portable", nullptr, nullptr, nullptr, nullptr}};
}

}  // namespace

#endif

namespace {

// The set every simd_*() call dispatches: the widest one, unless a test
// has installed a ScopedSimdKernels.
std::atomic<const SimdKernels*>& active_kernels() {
  static std::atomic<const SimdKernels*> active{&supported_simd_kernels().front()};
  return active;
}

const SimdKernels& dispatched() {
  return *active_kernels().load(std::memory_order_relaxed);
}

}  // namespace

const std::vector<SimdKernels>& supported_simd_kernels() {
  static const std::vector<SimdKernels> sets = detect_kernels();
  return sets;
}

MatmulRowsFn simd_matmul_rows() { return dispatched().matmul; }
MatmulNtRowsFn simd_matmul_nt_rows() { return dispatched().matmul_nt; }
GateRowsFn simd_sigmoid_rows() { return dispatched().sigmoid; }
GateRowsFn simd_tanh_rows() { return dispatched().tanh; }
const char* simd_kernel_name() { return dispatched().name; }

ScopedSimdKernels::ScopedSimdKernels(const SimdKernels& kernels)
    : previous_(active_kernels().exchange(&kernels)) {}

ScopedSimdKernels::~ScopedSimdKernels() { active_kernels().store(previous_); }

}  // namespace cpsguard::nn
