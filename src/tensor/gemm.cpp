#include "tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "tensor/cpu_dispatch.hpp"
#include "tensor/gemm_simd.hpp"
#include "tensor/matrix.hpp"
#include "util/mutex.hpp"
#include "util/thread.hpp"
#include "util/thread_pool.hpp"

namespace pp::tensor {

namespace {

std::atomic<GemmKernel> g_kernel{GemmKernel::kAuto};
std::atomic<std::size_t> g_threads{1};
// ~0.25 MMAC: below this a [B x d] product finishes before a pool handoff
// would even wake a worker.
std::atomic<std::size_t> g_threshold{256 * 1024};

std::atomic<std::size_t> g_pool_builds{0};

/// Pools are shared across all gemm call sites and cached per width:
/// two concurrent callers alternating widths (e.g. a trainer at 8 and a
/// serving replica at 4) each keep their own pool instead of thrashing
/// thread creation on the hot path. The cache is bounded by the number
/// of distinct configured widths, which is a handful in practice.
/// Handing out shared_ptr copies keeps a cache eviction (none today)
/// from pulling a pool out from under a concurrent caller.
std::shared_ptr<ThreadPool> acquire_pool(std::size_t threads) {
  static Mutex mutex;
  static std::unordered_map<std::size_t, std::shared_ptr<ThreadPool>> pools;
  MutexLock lock(mutex);
  std::shared_ptr<ThreadPool>& pool = pools[threads];
  if (!pool) {
    pool = std::make_shared<ThreadPool>(threads);
    g_pool_builds.fetch_add(1, std::memory_order_relaxed);
  }
  return pool;
}

// Tile sizes: the (kKc x kNc) B tile is 128 KB — L2-resident — and is
// reused across kMc output rows; each kNc-wide C row segment is 1 KB and
// stays in L1 across the p loop.
constexpr std::size_t kMc = 64;
constexpr std::size_t kKc = 128;
constexpr std::size_t kNc = 256;

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

void nn_blocked_range(const float* a, const float* b, float* c, std::size_t k,
                      std::size_t n, std::size_t i0, std::size_t i1) {
  for (std::size_t ib = i0; ib < i1; ib += kMc) {
    const std::size_t i_end = std::min(ib + kMc, i1);
    for (std::size_t pb = 0; pb < k; pb += kKc) {
      const std::size_t p_end = std::min(pb + kKc, k);
      for (std::size_t jb = 0; jb < n; jb += kNc) {
        const std::size_t j_end = std::min(jb + kNc, n);
        std::size_t i = ib;
        // 4-row micro-kernel: each B row is read once and folded into four
        // output rows from registers.
        for (; i + 4 <= i_end; i += 4) {
          const float* a0 = a + (i + 0) * k;
          const float* a1 = a + (i + 1) * k;
          const float* a2 = a + (i + 2) * k;
          const float* a3 = a + (i + 3) * k;
          float* c0 = c + (i + 0) * n;
          float* c1 = c + (i + 1) * n;
          float* c2 = c + (i + 2) * n;
          float* c3 = c + (i + 3) * n;
          for (std::size_t p = pb; p < p_end; ++p) {
            const float v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
            const bool z0 = v0 == 0.0f, z1 = v1 == 0.0f, z2 = v2 == 0.0f,
                       z3 = v3 == 0.0f;
            if (z0 && z1 && z2 && z3) {
              continue;  // aligned padding rows in the padded-batch trainer
            }
            const float* b_row = b + p * n;
            if (!z0 && !z1 && !z2 && !z3) {
              // Dense fast path (the common case for activations).
              for (std::size_t j = jb; j < j_end; ++j) {
                const float bv = b_row[j];
                c0[j] += v0 * bv;
                c1[j] += v1 * bv;
                c2[j] += v2 * bv;
                c3[j] += v3 * bv;
              }
            } else {
              // Mixed zero/nonzero rows: per-row loops keep the skip at
              // the naive kernel's per-(row, p) granularity — adding
              // v * b for a zero v would turn a skipped term into
              // 0 * Inf = NaN when B is non-finite (zero-skip contract).
              if (!z0) {
                for (std::size_t j = jb; j < j_end; ++j) c0[j] += v0 * b_row[j];
              }
              if (!z1) {
                for (std::size_t j = jb; j < j_end; ++j) c1[j] += v1 * b_row[j];
              }
              if (!z2) {
                for (std::size_t j = jb; j < j_end; ++j) c2[j] += v2 * b_row[j];
              }
              if (!z3) {
                for (std::size_t j = jb; j < j_end; ++j) c3[j] += v3 * b_row[j];
              }
            }
          }
        }
        for (; i < i_end; ++i) {
          const float* a_row = a + i * k;
          float* c_row = c + i * n;
          for (std::size_t p = pb; p < p_end; ++p) {
            const float a_ip = a_row[p];
            if (a_ip == 0.0f) continue;
            const float* b_row = b + p * n;
            for (std::size_t j = jb; j < j_end; ++j) c_row[j] += a_ip * b_row[j];
          }
        }
      }
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

void tn_blocked_range(const float* a, const float* b, float* c, std::size_t k,
                      std::size_t m, std::size_t n, std::size_t i0,
                      std::size_t i1) {
  for (std::size_t pb = 0; pb < k; pb += kKc) {
    const std::size_t p_end = std::min(pb + kKc, k);
    for (std::size_t jb = 0; jb < n; jb += kNc) {
      const std::size_t j_end = std::min(jb + kNc, n);
      std::size_t i = i0;
      for (; i + 4 <= i1; i += 4) {
        float* c0 = c + (i + 0) * n;
        float* c1 = c + (i + 1) * n;
        float* c2 = c + (i + 2) * n;
        float* c3 = c + (i + 3) * n;
        for (std::size_t p = pb; p < p_end; ++p) {
          const float* a_row = a + p * m + i;  // four contiguous columns
          const float v0 = a_row[0], v1 = a_row[1], v2 = a_row[2],
                      v3 = a_row[3];
          const bool z0 = v0 == 0.0f, z1 = v1 == 0.0f, z2 = v2 == 0.0f,
                     z3 = v3 == 0.0f;
          if (z0 && z1 && z2 && z3) continue;
          const float* b_row = b + p * n;
          if (!z0 && !z1 && !z2 && !z3) {
            for (std::size_t j = jb; j < j_end; ++j) {
              const float bv = b_row[j];
              c0[j] += v0 * bv;
              c1[j] += v1 * bv;
              c2[j] += v2 * bv;
              c3[j] += v3 * bv;
            }
          } else {
            // Per-(row, p) skip granularity — see nn_blocked_range.
            if (!z0) {
              for (std::size_t j = jb; j < j_end; ++j) c0[j] += v0 * b_row[j];
            }
            if (!z1) {
              for (std::size_t j = jb; j < j_end; ++j) c1[j] += v1 * b_row[j];
            }
            if (!z2) {
              for (std::size_t j = jb; j < j_end; ++j) c2[j] += v2 * b_row[j];
            }
            if (!z3) {
              for (std::size_t j = jb; j < j_end; ++j) c3[j] += v3 * b_row[j];
            }
          }
        }
      }
      for (; i < i1; ++i) {
        float* c_row = c + i * n;
        for (std::size_t p = pb; p < p_end; ++p) {
          const float a_pi = a[p * m + i];
          if (a_pi == 0.0f) continue;
          const float* b_row = b + p * n;
          for (std::size_t j = jb; j < j_end; ++j) c_row[j] += a_pi * b_row[j];
        }
      }
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

void nt_blocked_range(const float* a, const float* b, float* c, std::size_t k,
                      std::size_t n, std::size_t i0, std::size_t i1) {
  // jb tiles keep a (kNc x k) slab of B rows cache-resident across all
  // output rows; the 4-column micro-kernel reads each a_row element once
  // for four simultaneous dot products.
  for (std::size_t jb = 0; jb < n; jb += kNc) {
    const std::size_t j_end = std::min(jb + kNc, n);
    for (std::size_t i = i0; i < i1; ++i) {
      const float* a_row = a + i * k;
      float* c_row = c + i * n;
      std::size_t j = jb;
      for (; j + 4 <= j_end; j += 4) {
        const float* b0 = b + (j + 0) * k;
        const float* b1 = b + (j + 1) * k;
        const float* b2 = b + (j + 2) * k;
        const float* b3 = b + (j + 3) * k;
        float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
        for (std::size_t p = 0; p < k; ++p) {
          const float av = a_row[p];
          acc0 += av * b0[p];
          acc1 += av * b1[p];
          acc2 += av * b2[p];
          acc3 += av * b3[p];
        }
        c_row[j + 0] += acc0;
        c_row[j + 1] += acc1;
        c_row[j + 2] += acc2;
        c_row[j + 3] += acc3;
      }
      for (; j < j_end; ++j) {
        const float* b_row = b + j * k;
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
        c_row[j] += acc;
      }
    }
  }
}

// ---- dispatch helpers ------------------------------------------------------

/// Resolves the configured kernel knob to the kernel that will run:
/// kAuto -> process default (env override or best supported), kSimd ->
/// kBlocked when the AVX2 kernels cannot run here. See cpu_dispatch.hpp.
GemmKernel resolve_kernel(GemmKernel configured) {
  static const GemmKernel process_default = [] {
    GemmKernel forced;
    if (gemm_kernel_from_env(&forced)) {
      if (forced == GemmKernel::kSimd && !gemm_simd_available()) {
        return GemmKernel::kBlocked;
      }
      return forced;
    }
    return gemm_simd_available() ? GemmKernel::kSimd : GemmKernel::kBlocked;
  }();
  switch (configured) {
    case GemmKernel::kAuto:
      return process_default;
    case GemmKernel::kSimd:
      return gemm_simd_available() ? GemmKernel::kSimd : GemmKernel::kBlocked;
    default:
      return configured;
  }
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

inline void debug_check_finite_b(const Matrix& b) {
  debug_check_finite_b(b.data(), b.size());
}

/// Runs `range_fn(i0, i1)` over [0, rows), striped across the shared pool
/// when the configured thread count and the product size justify it. The
/// pool cache is keyed by the configured width — only the stripe count is
/// clamped to the row count — so alternating row shapes or widths never
/// force a pool teardown/respawn.
template <typename RangeFn>
void run_partitioned(std::size_t rows, std::size_t macs, RangeFn&& range_fn) {
  std::size_t threads = g_threads.load(std::memory_order_relaxed);
  if (threads == 0) {
    threads = std::max<std::size_t>(1, Thread::hardware_concurrency());
  }
  const std::size_t stripes = std::min(threads, rows);
  if (stripes <= 1 || macs < g_threshold.load(std::memory_order_relaxed)) {
    range_fn(std::size_t{0}, rows);
    return;
  }
  auto pool = acquire_pool(threads);
  const std::size_t stripe = (rows + stripes - 1) / stripes;
  pool->parallel_for(stripes, [&](std::size_t t) {
    const std::size_t i0 = t * stripe;
    const std::size_t i1 = std::min(i0 + stripe, rows);
    if (i0 < i1) range_fn(i0, i1);
  });
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

std::size_t gemm_threads() {
  return g_threads.load(std::memory_order_relaxed);
}
void set_gemm_threads(std::size_t threads) {
  g_threads.store(threads, std::memory_order_relaxed);
}

std::size_t gemm_parallel_threshold() {
  return g_threshold.load(std::memory_order_relaxed);
}
void set_gemm_parallel_threshold(std::size_t macs) {
  g_threshold.store(macs, std::memory_order_relaxed);
}

std::size_t gemm_pool_builds() {
  return g_pool_builds.load(std::memory_order_relaxed);
}

GemmConfigScope::GemmConfigScope(GemmKernel kernel, std::size_t threads)
    : saved_kernel_(gemm_kernel()),
      saved_threads_(gemm_threads()),
      saved_threshold_(gemm_parallel_threshold()) {
  set_gemm_kernel(kernel);
  set_gemm_threads(threads);
}

GemmConfigScope::GemmConfigScope(GemmKernel kernel, std::size_t threads,
                                 std::size_t parallel_threshold)
    : GemmConfigScope(kernel, threads) {
  set_gemm_parallel_threshold(parallel_threshold);
}

GemmConfigScope::~GemmConfigScope() {
  set_gemm_kernel(saved_kernel_);
  set_gemm_threads(saved_threads_);
  set_gemm_parallel_threshold(saved_threshold_);
}

void gemm_partition_rows(
    std::size_t rows, std::size_t macs,
    const std::function<void(std::size_t, std::size_t)>& range_fn) {
  run_partitioned(rows, macs, range_fn);
}

// ---- public kernels --------------------------------------------------------

void gemm_nn_naive(const Matrix& a, const Matrix& b, Matrix& c) {
  nn_naive_range(a.data(), b.data(), c.data(), a.cols(), b.cols(), 0,
                 a.rows());
}

void gemm_nn_blocked(const Matrix& a, const Matrix& b, Matrix& c) {
  nn_blocked_range(a.data(), b.data(), c.data(), a.cols(), b.cols(), 0,
                   a.rows());
}

void gemm_nn_simd(const Matrix& a, const Matrix& b, Matrix& c) {
  if (!gemm_simd_available()) {
    gemm_nn_blocked(a, b, c);
    return;
  }
  simd::nn_f32_range(a.data(), b.data(), c.data(), a.cols(), b.cols(), 0,
                     a.rows());
}

void gemm_tn_naive(const Matrix& a, const Matrix& b, Matrix& c) {
  tn_naive_range(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols(),
                 0, a.cols());
}

void gemm_tn_blocked(const Matrix& a, const Matrix& b, Matrix& c) {
  tn_blocked_range(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols(),
                   0, a.cols());
}

void gemm_tn_simd(const Matrix& a, const Matrix& b, Matrix& c) {
  if (!gemm_simd_available()) {
    gemm_tn_blocked(a, b, c);
    return;
  }
  simd::tn_f32_range(a.data(), b.data(), c.data(), a.rows(), a.cols(),
                     b.cols(), 0, a.cols());
}

void gemm_nt_naive(const Matrix& a, const Matrix& b, Matrix& c) {
  nt_naive_range(a.data(), b.data(), c.data(), a.cols(), b.rows(), 0,
                 a.rows());
}

void gemm_nt_blocked(const Matrix& a, const Matrix& b, Matrix& c) {
  nt_blocked_range(a.data(), b.data(), c.data(), a.cols(), b.rows(), 0,
                   a.rows());
}

void gemm_nt_simd(const Matrix& a, const Matrix& b, Matrix& c) {
  if (!gemm_simd_available()) {
    gemm_nt_blocked(a, b, c);
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
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (m == 0 || k == 0 || n == 0) return;
  debug_check_finite_b(b);
  switch (resolve_kernel(g_kernel.load(std::memory_order_relaxed))) {
    case GemmKernel::kNaive:
      gemm_nn_naive(a, b, c);
      return;
    case GemmKernel::kSimd:
      run_partitioned(m, m * k * n, [&](std::size_t i0, std::size_t i1) {
        simd::nn_f32_range(a.data(), b.data(), c.data(), k, n, i0, i1);
      });
      return;
    default:
      run_partitioned(m, m * k * n, [&](std::size_t i0, std::size_t i1) {
        nn_blocked_range(a.data(), b.data(), c.data(), k, n, i0, i1);
      });
  }
}

void gemm_tn_dispatch(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (m == 0 || k == 0 || n == 0) return;
  debug_check_finite_b(b);
  switch (resolve_kernel(g_kernel.load(std::memory_order_relaxed))) {
    case GemmKernel::kNaive:
      gemm_tn_naive(a, b, c);
      return;
    case GemmKernel::kSimd:
      run_partitioned(m, m * k * n, [&](std::size_t i0, std::size_t i1) {
        simd::tn_f32_range(a.data(), b.data(), c.data(), k, m, n, i0, i1);
      });
      return;
    default:
      run_partitioned(m, m * k * n, [&](std::size_t i0, std::size_t i1) {
        tn_blocked_range(a.data(), b.data(), c.data(), k, m, n, i0, i1);
      });
  }
}

void gemm_nt_dispatch(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (m == 0 || k == 0 || n == 0) return;
  debug_check_finite_b(b);
  switch (resolve_kernel(g_kernel.load(std::memory_order_relaxed))) {
    case GemmKernel::kNaive:
      gemm_nt_naive(a, b, c);
      return;
    case GemmKernel::kSimd:
      run_partitioned(m, m * k * n, [&](std::size_t i0, std::size_t i1) {
        simd::nt_f32_range(a.data(), b.data(), c.data(), k, n, i0, i1);
      });
      return;
    default:
      run_partitioned(m, m * k * n, [&](std::size_t i0, std::size_t i1) {
        nt_blocked_range(a.data(), b.data(), c.data(), k, n, i0, i1);
      });
  }
}

}  // namespace pp::tensor
