// The GEMM kernels under Matrix::matmul* / gemm_accumulate — the numeric
// hot path of both training (§7: every BPTT step is two gate matmuls) and
// serving (§9: FLOPs per prediction).
//
// Three kernels are provided, selected per process by runtime CPU
// dispatch (tensor/cpu_dispatch.hpp):
//  * kNaive   — the seed's reference loops (i-k-j with a zero-skip for
//               one-hot rows). Kept as the parity baseline and for the
//               old-vs-new bench comparison.
//  * kBlocked — cache-tiled with a 4-row micro-kernel that reuses each B
//               row across four output rows. Portable baseline x86-64;
//               the fallback when AVX2/FMA is absent.
//  * kSimd    — explicit register-blocked AVX2/FMA micro-kernels (6x16
//               broadcast for f32, vpmaddubsw/vpmaddwd for int8) in
//               dedicated -mavx2 -mfma TUs. Selected by default when the
//               host CPU supports it; falls back to kBlocked otherwise.
//               On AVX-512 VNNI hosts the fused int8 serving products
//               (tensor::QuantizedWeights) run a vpdpbusd lane of kSimd
//               instead (qgemm_avx512.cpp).
//  * kAuto    — "use the dispatch default" (the initial configuration).
// All kernels compose with the optional row-partitioned ThreadPool
// variant, with two exceptions: QuantizedWeights::multiply (the fused int8
// serving step and head) and gemv_nz (the fused f32 head) always run on
// the calling thread, so set_gemm_threads / GemmConfigScope thread counts
// do not reach them.
// PP_GEMM_FORCE_KERNEL=naive|blocked|simd overrides the process default
// (CI uses it to keep the portable path tested on AVX2 runners);
// gemm_dispatched_kernel() reports what would actually run.
//
// Parity contract (pinned by tests/tensor_gemm_test.cpp):
//  * Accumulation order over the shared dimension is identical
//    (ascending p per output element) in every kernel and stripe
//    partition, and FP contraction is pinned OFF in every kernel TU
//    (-ffp-contract=off; the SIMD kernels use explicit separate
//    vmulps+vaddps, never fused FMA), so naive == blocked == simd ==
//    threaded bit-for-bit, int8 and f32 alike.
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
// Kernel selection and threading are process-global knobs (benches and
// the trainer flip them); GemmConfigScope restores them on scope exit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace pp::tensor {

class Matrix;

enum class GemmKernel { kNaive, kBlocked, kSimd, kAuto };

/// The configured kernel knob (possibly kAuto). See
/// gemm_dispatched_kernel() for what will actually run.
GemmKernel gemm_kernel();
void set_gemm_kernel(GemmKernel kernel);

/// Resolves the configured knob to the concrete kernel a product would
/// use right now: kAuto becomes the process default (PP_GEMM_FORCE_KERNEL
/// env override, else kSimd when the host supports AVX2+FMA and the SIMD
/// TUs are compiled in, else kBlocked), and kSimd degrades to kBlocked
/// when SIMD is unavailable. Never returns kAuto.
GemmKernel gemm_dispatched_kernel();

/// Worker threads for the row-partitioned kernels. 1 = sequential
/// (the default), 0 = hardware concurrency.
std::size_t gemm_threads();
void set_gemm_threads(std::size_t threads);

/// Minimum multiply-accumulate count (m*k*n) before the threaded path
/// engages; small products are faster on the calling thread.
std::size_t gemm_parallel_threshold();
void set_gemm_parallel_threshold(std::size_t macs);

/// Total ThreadPool constructions performed by the shared GEMM pool
/// cache since process start. Pools are cached per width, so callers
/// alternating widths must not drive this up (regression-tested).
std::size_t gemm_pool_builds();

/// RAII guard: selects (kernel, threads[, parallel threshold]) for the
/// current scope and restores the previous configuration — threshold
/// included — on destruction.
class GemmConfigScope {
 public:
  GemmConfigScope(GemmKernel kernel, std::size_t threads);
  GemmConfigScope(GemmKernel kernel, std::size_t threads,
                  std::size_t parallel_threshold);
  ~GemmConfigScope();
  GemmConfigScope(const GemmConfigScope&) = delete;
  GemmConfigScope& operator=(const GemmConfigScope&) = delete;

 private:
  GemmKernel saved_kernel_;
  std::size_t saved_threads_;
  std::size_t saved_threshold_;
};

// ---- accumulating kernels (exposed for parity tests and benches) ----
// Shape contracts match the Matrix entry points, which validate them:
//   nn: c[m x n] += a[m x k] * b[k x n]
//   tn: c[m x n] += a[k x m]^T * b[k x n]
//   nt: c[m x n] += a[m x k] * b[n x k]^T
// The *_simd entry points run the AVX2/FMA kernels when
// gemm_simd_available() (tensor/cpu_dispatch.hpp) and fall back to the
// blocked kernel otherwise — results are identical either way.
void gemm_nn_naive(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_nn_blocked(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_nn_simd(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_tn_naive(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_tn_blocked(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_tn_simd(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_nt_naive(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_nt_blocked(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_nt_simd(const Matrix& a, const Matrix& b, Matrix& c);

// ---- gemv over a nonzero list (the fused f32 serving head) ----
/// out[j] = sum over t < nnz of vals[t] * w[rows[t] * n + j], for j < n;
/// out is overwritten. `rows` ascends and names the nonzero positions of
/// an input row, `vals` their values, so each element is the nn chain of
/// that row against the [k x n] weight `w`: accumulated from +0.0f in
/// ascending row order with a separate mul and add, zero terms skipped
/// (the zero-skip contract above; debug builds assert `w` finite). Runs on
/// the calling thread with no allocation, on the dispatched kernel: the
/// portable loop under kNaive and kBlocked, the AVX2 lane (up to 8 ymm
/// accumulators, 64 columns per pass) under kSimd, AVX-512 hosts
/// included. Both agree bit for bit.
void gemv_nz(const float* vals, const std::uint32_t* rows, std::size_t nnz,
             const float* w, std::size_t k, std::size_t n, float* out);

/// Row-partitions [0, rows) across the shared GEMM thread pool according
/// to the global (threads, parallel-threshold) configuration; `macs` is
/// the multiply-accumulate count weighed against the threshold, and the
/// sequential path simply runs range_fn(0, rows) on the caller. Exposed so
/// sibling kernels (the int8 qgemm) share one pool and one set of knobs.
void gemm_partition_rows(
    std::size_t rows, std::size_t macs,
    const std::function<void(std::size_t, std::size_t)>& range_fn);

// ---- dispatchers used by Matrix (kernel + threading per global config) ----
void gemm_nn_dispatch(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_tn_dispatch(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_nt_dispatch(const Matrix& a, const Matrix& b, Matrix& c);

}  // namespace pp::tensor
