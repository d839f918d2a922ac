// The GEMM kernels under Matrix::matmul* / gemm_accumulate — the numeric
// hot path of both training (§7: every BPTT step is two gate matmuls) and
// serving (§9: FLOPs per prediction).
//
// Two kernels are provided, selected per process by runtime CPU dispatch
// (tensor/cpu_dispatch.hpp):
//  * kNaive   — the seed's reference loops (i-k-j with a zero-skip for
//               one-hot rows): the parity reference every other lane is
//               tested against, and the one portable lane, which hosts
//               without AVX2/FMA and -DPP_SIMD_KERNELS=OFF builds run.
//  * kSimd    — explicit register-blocked AVX2/FMA micro-kernels (6x16
//               broadcast for f32, vpmaddubsw/vpmaddwd for int8) in
//               dedicated -mavx2 -mfma TUs. Selected by default when the
//               host CPU supports it; falls back to kNaive otherwise.
//               On AVX-512 VNNI hosts the fused int8 serving products
//               (tensor::QuantizedWeights) run a vpdpbusd lane of kSimd
//               instead (qgemm_avx512.cpp).
//  * kAuto    — "use the dispatch default" (the initial configuration).
// Every product runs on the thread that asks for it. Parallelism belongs
// to the callers (§7.1's per-user threads, the threaded replay), which run
// whole users on their own threads; the kernels keep only thread-local
// scratch.
// PP_GEMM_FORCE_KERNEL=naive|simd overrides the process default (CI uses
// it to keep the portable path tested on AVX2 runners; any other value
// throws); gemm_dispatched_kernel() reports what would actually run.
//
// Parity contract (pinned by tests/tensor_gemm_test.cpp):
//  * Accumulation order over the shared dimension is identical
//    (ascending p per output element) in every kernel, and FP
//    contraction is pinned OFF in every kernel TU (-ffp-contract=off; the
//    SIMD kernels use explicit separate vmulps+vaddps, never fused FMA),
//    so naive == simd bit-for-bit, int8 and f32 alike.
//  * Zero-skip contract: the nn/tn kernels skip an individual (row, p)
//    term exactly when the A operand is 0.0f. Every kernel skips at the
//    same per-(row, p) granularity, so the equivalence holds bitwise
//    even for non-finite B. The skip is *semantically* justified only
//    because model weights are finite (0 * Inf would otherwise be NaN,
//    not 0): debug builds assert all_finite(B) at the matmul entry
//    points, and the pinned semantics for a non-finite B operand are
//    "zero A entries contribute nothing; nonzero A entries propagate
//    Inf/NaN identically in every kernel". The nt (dot-product) path
//    has no skip: every kernel computes every term.
//  * A row of a batched [B x d] product == the same row computed as a
//    [1 x d] product — the invariant the batched scoring path relies on.
//
// Kernel selection is a process-global knob (benches and tests flip it);
// GemmConfigScope restores it on scope exit.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pp::tensor {

class Matrix;

/// Explicit values: gtest prints a GemmKernel parameter's bytes into the
/// ids of parametrized tests, so an enumerator keeps its value once
/// assigned (1 is retired).
enum class GemmKernel { kNaive = 0, kSimd = 2, kAuto = 3 };

/// The configured kernel knob (possibly kAuto). See
/// gemm_dispatched_kernel() for what will actually run.
GemmKernel gemm_kernel();
void set_gemm_kernel(GemmKernel kernel);

/// Resolves the configured knob to the concrete kernel a product would
/// use right now: kAuto becomes the process default (PP_GEMM_FORCE_KERNEL
/// env override, else kSimd), and kSimd degrades to kNaive when the host
/// lacks AVX2+FMA or the SIMD TUs are not compiled in. Never returns
/// kAuto.
GemmKernel gemm_dispatched_kernel();

/// Always 1: every product runs on the calling thread. Kept for the
/// benchmark's build report.
std::size_t gemm_threads();

/// RAII guard: selects a kernel for the current scope and restores the
/// previous one on destruction.
class GemmConfigScope {
 public:
  explicit GemmConfigScope(GemmKernel kernel);
  ~GemmConfigScope();
  GemmConfigScope(const GemmConfigScope&) = delete;
  GemmConfigScope& operator=(const GemmConfigScope&) = delete;

 private:
  GemmKernel saved_kernel_;
};

// ---- accumulating kernels (exposed for parity tests and benches) ----
// Shape contracts match the Matrix entry points, which validate them:
//   nn: c[m x n] += a[m x k] * b[k x n]
//   tn: c[m x n] += a[k x m]^T * b[k x n]
//   nt: c[m x n] += a[m x k] * b[n x k]^T
// The *_simd entry points run the AVX2/FMA kernels when
// gemm_simd_available() (tensor/cpu_dispatch.hpp) and fall back to the
// naive kernel otherwise — results are identical either way.
void gemm_nn_naive(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_nn_simd(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_tn_naive(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_tn_simd(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_nt_naive(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_nt_simd(const Matrix& a, const Matrix& b, Matrix& c);

// ---- gemv over a nonzero list (the fused f32 serving head) ----
/// out[j] = sum over t < nnz of vals[t] * w[rows[t] * n + j], for j < n;
/// out is overwritten. `rows` ascends and names the nonzero positions of
/// an input row, `vals` their values, so each element is the nn chain of
/// that row against the [k x n] weight `w`: accumulated from +0.0f in
/// ascending row order with a separate mul and add, zero terms skipped
/// (the zero-skip contract above; debug builds assert `w` finite). Runs on
/// the calling thread with no allocation, on the dispatched kernel: the
/// portable loop under kNaive, the AVX2 lane (up to 8 ymm
/// accumulators, 64 columns per pass) under kSimd, AVX-512 hosts
/// included. Both agree bit for bit.
void gemv_nz(const float* vals, const std::uint32_t* rows, std::size_t nnz,
             const float* w, std::size_t k, std::size_t n, float* out);

// ---- dispatchers used by Matrix (kernel per global config) ----
void gemm_nn_dispatch(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_tn_dispatch(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_nt_dispatch(const Matrix& a, const Matrix& b, Matrix& c);

}  // namespace pp::tensor
