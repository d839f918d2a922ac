#include "tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>

#include "tensor/cpu_dispatch.hpp"
#include "tensor/gemm_simd.hpp"
#include "tensor/matrix.hpp"

namespace pp::tensor {

namespace {

std::atomic<GemmKernel> g_kernel{GemmKernel::kAuto};

// ---- nn: c[i0:i1, :] += a[i0:i1, :] * b -----------------------------------

void nn_naive_range(const float* a, const float* b, float* c, std::size_t k,
                    std::size_t n, std::size_t i0, std::size_t i1) {
  // i-k-j order: the inner loop walks both b and c contiguously.
  for (std::size_t i = i0; i < i1; ++i) {
    float* c_row = c + i * n;
    const float* a_row = a + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      // One-hot inputs make this common. Skipping is justified by the
      // finite-weights contract (gemm.hpp): 0 * b == 0 only for finite b.
      if (a_ip == 0.0f) continue;
      const float* b_row = b + p * n;
      for (std::size_t j = 0; j < n; ++j) c_row[j] += a_ip * b_row[j];
    }
  }
}

// ---- gemv over a nonzero list: the portable lane of gemv_nz ---------------

void gemv_nz_portable(const float* vals, const std::uint32_t* rows,
                      std::size_t nnz, const float* w, std::size_t n,
                      float* out) {
  std::fill_n(out, n, 0.0f);
  for (std::size_t t = 0; t < nnz; ++t) {
    const float v = vals[t];
    const float* w_row = w + std::size_t{rows[t]} * n;
    for (std::size_t j = 0; j < n; ++j) out[j] += v * w_row[j];
  }
}

// ---- tn: c[i0:i1, :] += a[:, i0:i1]^T * b ---------------------------------
// a is [k x m] row-major; output row i is driven by column i of a.

void tn_naive_range(const float* a, const float* b, float* c, std::size_t k,
                    std::size_t m, std::size_t n, std::size_t i0,
                    std::size_t i1) {
  for (std::size_t p = 0; p < k; ++p) {
    const float* a_row = a + p * m;
    const float* b_row = b + p * n;
    for (std::size_t i = i0; i < i1; ++i) {
      const float a_pi = a_row[i];
      if (a_pi == 0.0f) continue;
      float* c_row = c + i * n;
      for (std::size_t j = 0; j < n; ++j) c_row[j] += a_pi * b_row[j];
    }
  }
}

// ---- nt: c[i0:i1, :] += a[i0:i1, :] * b^T ---------------------------------
// b is [n x k] row-major; every output element is a row-row dot product.
// No zero-skip on this path (see the contract in gemm.hpp): every kernel
// computes every term of the local dot product.

void nt_naive_range(const float* a, const float* b, float* c, std::size_t k,
                    std::size_t n, std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      c_row[j] += acc;
    }
  }
}

// ---- dispatch helpers ------------------------------------------------------

/// Resolves the configured kernel knob to the kernel that will run:
/// kAuto -> process default (env override, else kSimd), and kSimd ->
/// kNaive when the AVX2 kernels cannot run here. See cpu_dispatch.hpp.
GemmKernel resolve_kernel(GemmKernel configured) {
  static const GemmKernel process_default = [] {
    GemmKernel kernel = GemmKernel::kSimd;
    gemm_kernel_from_env(&kernel);
    return kernel;
  }();
  const GemmKernel kernel =
      configured == GemmKernel::kAuto ? process_default : configured;
  return kernel == GemmKernel::kSimd && !gemm_simd_available()
             ? GemmKernel::kNaive
             : kernel;
}

/// Debug check for the finite-weights contract behind the nn/tn
/// zero-skip (gemm.hpp). Release builds compile this out.
inline void debug_check_finite_b(const float* b, std::size_t size) {
#if !defined(NDEBUG)
  assert(std::all_of(b, b + size, [](float v) { return std::isfinite(v); }) &&
         "gemm: non-finite B operand violates the finite-weights "
         "zero-skip contract (tensor/gemm.hpp)");
#else
  (void)b;
  (void)size;
#endif
}

using KernelFn = void (*)(const Matrix&, const Matrix&, Matrix&);

/// Runs one product on the dispatched kernel. `a` spans m and k and `c`
/// spans m and n in every layout, so a product with an empty dimension is
/// one where either is empty: it adds nothing.
void run_dispatched(const Matrix& a, const Matrix& b, Matrix& c,
                    KernelFn naive, KernelFn simd) {
  if (a.size() == 0 || c.size() == 0) return;
  debug_check_finite_b(b.data(), b.size());
  if (resolve_kernel(g_kernel.load(std::memory_order_relaxed)) ==
      GemmKernel::kSimd) {
    simd(a, b, c);
  } else {
    naive(a, b, c);
  }
}

}  // namespace

// ---- configuration ---------------------------------------------------------

GemmKernel gemm_kernel() { return g_kernel.load(std::memory_order_relaxed); }
void set_gemm_kernel(GemmKernel kernel) {
  g_kernel.store(kernel, std::memory_order_relaxed);
}

GemmKernel gemm_dispatched_kernel() {
  return resolve_kernel(g_kernel.load(std::memory_order_relaxed));
}

std::size_t gemm_threads() { return 1; }

GemmConfigScope::GemmConfigScope(GemmKernel kernel)
    : saved_kernel_(gemm_kernel()) {
  set_gemm_kernel(kernel);
}

GemmConfigScope::~GemmConfigScope() { set_gemm_kernel(saved_kernel_); }

// ---- public kernels --------------------------------------------------------

void gemm_nn_naive(const Matrix& a, const Matrix& b, Matrix& c) {
  nn_naive_range(a.data(), b.data(), c.data(), a.cols(), b.cols(), 0,
                 a.rows());
}

void gemm_nn_simd(const Matrix& a, const Matrix& b, Matrix& c) {
  if (!gemm_simd_available()) {
    gemm_nn_naive(a, b, c);
    return;
  }
  simd::nn_f32_range(a.data(), b.data(), c.data(), a.cols(), b.cols(), 0,
                     a.rows());
}

void gemm_tn_naive(const Matrix& a, const Matrix& b, Matrix& c) {
  tn_naive_range(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols(),
                 0, a.cols());
}

void gemm_tn_simd(const Matrix& a, const Matrix& b, Matrix& c) {
  if (!gemm_simd_available()) {
    gemm_tn_naive(a, b, c);
    return;
  }
  simd::tn_f32_range(a.data(), b.data(), c.data(), a.rows(), a.cols(),
                     b.cols(), 0, a.cols());
}

void gemm_nt_naive(const Matrix& a, const Matrix& b, Matrix& c) {
  nt_naive_range(a.data(), b.data(), c.data(), a.cols(), b.rows(), 0,
                 a.rows());
}

void gemm_nt_simd(const Matrix& a, const Matrix& b, Matrix& c) {
  if (!gemm_simd_available()) {
    gemm_nt_naive(a, b, c);
    return;
  }
  simd::nt_f32_range(a.data(), b.data(), c.data(), a.cols(), b.rows(), 0,
                     a.rows());
}

// ---- dispatchers -----------------------------------------------------------

void gemv_nz(const float* vals, const std::uint32_t* rows, std::size_t nnz,
             const float* w, std::size_t k, std::size_t n, float* out) {
  debug_check_finite_b(w, k * n);
  if (resolve_kernel(g_kernel.load(std::memory_order_relaxed)) ==
      GemmKernel::kSimd) {
    simd::gemv_nz_f32(vals, rows, nnz, w, n, out);
  } else {
    gemv_nz_portable(vals, rows, nnz, w, n, out);
  }
}

void gemm_nn_dispatch(const Matrix& a, const Matrix& b, Matrix& c) {
  run_dispatched(a, b, c, gemm_nn_naive, gemm_nn_simd);
}

void gemm_tn_dispatch(const Matrix& a, const Matrix& b, Matrix& c) {
  run_dispatched(a, b, c, gemm_tn_naive, gemm_tn_simd);
}

void gemm_nt_dispatch(const Matrix& a, const Matrix& b, Matrix& c) {
  run_dispatched(a, b, c, gemm_nt_naive, gemm_nt_simd);
}

}  // namespace pp::tensor
