// Runtime-dispatched wide-SIMD kernels: GEMM rows and gate nonlinearities.
//
// The portable kernels in matrix.cpp and activations.cpp compile for
// baseline x86-64 (SSE2) so that committed goldens and cached monitors are
// reproducible on any machine. That leaves AVX2/AVX-512 silicon idle in the
// batched hot path (training and cross-session micro-batched inference both
// bottom out in matmul and in the recurrent cells' sigmoid/tanh). These
// kernels recover that width without giving up a single bit of determinism:
//
//  - identical operation sequence: the matmul kernels do a separate mul and
//    add per term, reduced strictly in ascending p — the same per-element
//    order as the portable kernel and the reference loops in
//    tests/test_matrix.cpp. The gate kernels evaluate the scalar ports'
//    statements (nn::expf_port, nn::tanhf_port) per lane, every branch
//    computed and then blended;
//  - FMA only where the reference fuses: the translation unit is compiled
//    with -ffp-contract=off, so a*b+c is never silently fused into a
//    differently-rounded fma(a,b,c). The explicit fused steps are the
//    matmul_nt accumulation (exact either way, see below) and expf's
//    argument reduction, which the scalar port fuses with std::fma;
//  - lane width never changes results: vectorizing over the output column
//    index j (or the element index, for the gates) touches independent
//    elements only.
//
// Because every path rounds identically, dispatch is invisible to tests:
// the bit-identical matmul suites, the exhaustive gate_math oracle and the
// golden CSVs pass unchanged on SSE2-only, AVX2, and AVX-512 hosts.
#pragma once

#include <vector>

namespace cpsguard::nn {

/// Row-range GEMM kernel: C[i0..i1) += A[i0..i1) * B for row-major
/// A (n x k), B (k x m), C (n x m) — same contract as the portable kernel.
using MatmulRowsFn = void (*)(const float* a, const float* b, float* c,
                              int i0, int i1, int k, int m);

/// The widest bit-identical kernel this CPU supports, or nullptr when only
/// the portable baseline kernel is available. Resolved once per process.
[[nodiscard]] MatmulRowsFn simd_matmul_rows();

/// Column padding of the staged Bᵀ the matmul_nt kernels read: a multiple
/// of every kernel's column tile, so tiles never run past a row.
inline constexpr int kMatmulNtColumnPad = 16;

/// Row-range A·Bᵀ kernel over a staged transpose: C[i0..i1) = A[i0..i1) Bᵀ
/// for row-major A (n x k), C (n x m) and `bt` = Bᵀ (k x ldb, ldb a
/// multiple of kMatmulNtColumnPad, columns m..ldb zero). It vectorises
/// across output columns, one double accumulator per lane. Same contract as
/// the portable matmul_nt kernel: each element sums float×float products in
/// double, in ascending p, and rounds once to float. A float×float product
/// is exact in double, so a fused multiply-add rounds exactly like the
/// separate mul and add, and the kernels may use either.
using MatmulNtRowsFn = void (*)(const float* a, const float* bt, float* c,
                                int i0, int i1, int k, int m, int ldb);

/// The widest matmul_nt kernel this CPU supports, or nullptr for the
/// portable one. Resolved once per process, on the same CPU checks as
/// simd_matmul_rows (plus FMA for the AVX2 kernel).
[[nodiscard]] MatmulNtRowsFn simd_matmul_nt_rows();

/// Element-wise gate kernel over a contiguous run: y[i] = f(x[i]) for i in
/// [0, n), bit-identical to the scalar port for every float input (NaN
/// payloads, ±inf, ±0 and subnormals included). `y` may equal `x`.
using GateRowsFn = void (*)(const float* x, float* y, int n);

/// The widest sigmoid / tanh kernels this CPU supports, or nullptr for the
/// scalar ports. Resolved on the same CPU checks as simd_matmul_rows (plus
/// FMA for the AVX2 kernels).
[[nodiscard]] GateRowsFn simd_sigmoid_rows();
[[nodiscard]] GateRowsFn simd_tanh_rows();

/// Name of the dispatched kernel for manifests and logs:
/// "avx512f", "avx2", or "portable".
[[nodiscard]] const char* simd_kernel_name();

/// One dispatchable kernel set; a null kernel means the portable one.
struct SimdKernels {
  const char* name;
  MatmulRowsFn matmul;
  MatmulNtRowsFn matmul_nt;
  GateRowsFn sigmoid;
  GateRowsFn tanh;
};

/// For tests: every kernel set this CPU can run, widest (the dispatched
/// one) first and "portable" (all null) last, so a suite can check each
/// narrower kernel on a wide host too.
[[nodiscard]] const std::vector<SimdKernels>& supported_simd_kernels();

/// For tests: dispatches `kernels` (one of supported_simd_kernels()) in
/// place of the widest set until destroyed. Install it before starting
/// work on other threads; guards nest in scope order.
class ScopedSimdKernels {
 public:
  explicit ScopedSimdKernels(const SimdKernels& kernels);
  ~ScopedSimdKernels();
  ScopedSimdKernels(const ScopedSimdKernels&) = delete;
  ScopedSimdKernels& operator=(const ScopedSimdKernels&) = delete;

 private:
  const SimdKernels* previous_;
};

}  // namespace cpsguard::nn
