// AVX2/FMA f32 GEMM micro-kernels — the only f32 TU compiled with
// -mavx2 -mfma (and -ffp-contract=off). Arithmetic is explicit vmulps +
// vaddps — never vfmaddps: FMA's single rounding would diverge from the
// scalar kernels' separate mul+add and break the bit-exact parity
// contract (gemm.hpp). -ffp-contract=off on this TU keeps the compiler
// from re-fusing the intrinsics.
//
// Parity-critical structure, shared with the naive kernels:
//  * every output element accumulates in ascending p order;
//  * nn/tn skip individual (row, p) terms when a == 0.0f (the zero-skip
//    contract in gemm.hpp) — nn materializes the skip as a per-row
//    ascending nonzero-index list, tn as a scalar test on the broadcast
//    value; either way skip granularity is identical to the naive kernel
//    even for non-finite B;
//  * nt accumulates each dot product from 0.0f in registers and adds to
//    C once at the end, exactly like nt_naive_range.
//
// The nn kernel is built for the serving workload, whose A rows are
// MOSTLY ZERO (one-hot context features: the seed's scalar kernels win
// on them purely via zero-skip). Each row's nonzero p indices are
// collected once into a scratch list — O(k) per row — and every column
// block then iterates only that list, broadcasting a[p] against 32 (or
// 16) B columns in register accumulators. Sparse rows cost nnz vector
// ops instead of k branch tests per column panel; dense rows still run
// a 4-accumulator chain per 32 columns.
//
// gemv_nz_f32 is the nn kernel for one row whose nonzero list the caller
// already holds (the fused f32 serving head builds it once per row and
// reuses it): up to 8 ymm accumulators, 64 columns per pass over the
// list, and a scalar tail for n % 8 columns.
//
// The tn/nt kernels are register-blocked 6x16 broadcast kernels: 12 ymm
// accumulators (6 output rows x 16 columns), one broadcast of A per row
// per k-step, two B vector loads shared by all six rows. The nt kernel
// packs 16 B rows at a time into a transposed panel (p-major, 16
// columns contiguous) so the inner loop is the same broadcast kernel;
// tn reads B rows directly — they are already contiguous along the
// vector axis.
//
// This TU must not instantiate std:: templates (vector, string, ...):
// their COMDAT-shared symbols would be compiled with AVX2 enabled and
// the linker may select them for baseline TUs, making the whole binary
// host-specific — the exact portability bug the per-file-flag strategy
// exists to fix. Scratch memory is raw new[]/delete[].
#include "tensor/gemm_simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace pp::tensor::simd {

namespace {

constexpr std::size_t kNr = 16;  // columns per panel: two ymm of f32
constexpr std::size_t kMr = 6;   // output rows in flight

/// Grow-only thread-local scratch. Raw allocation on purpose — see the
/// COMDAT note in the file comment.
struct F32Scratch {
  float* data = nullptr;
  std::size_t cap = 0;
  ~F32Scratch() { delete[] data; }
  float* get(std::size_t n) {
    if (n > cap) {
      delete[] data;
      data = new float[n];
      cap = n;
    }
    return data;
  }
};

float* scratch_f32(std::size_t n) {
  thread_local F32Scratch scratch;
  return scratch.get(n);
}

/// Grow-only thread-local index scratch (the per-row nonzero p lists).
struct U32Scratch {
  unsigned int* data = nullptr;
  std::size_t cap = 0;
  ~U32Scratch() { delete[] data; }
  unsigned int* get(std::size_t n) {
    if (n > cap) {
      delete[] data;
      data = new unsigned int[n];
      cap = n;
    }
    return data;
  }
};

unsigned int* scratch_u32(std::size_t n) {
  thread_local U32Scratch scratch;
  return scratch.get(n);
}

}  // namespace

// ---- nn: c[i0:i1, :] += a[i0:i1, :] * b -----------------------------------

void nn_f32_range(const float* a, const float* b, float* c, std::size_t k,
                  std::size_t n, std::size_t i0, std::size_t i1) {
  if (i0 >= i1 || n == 0 || k == 0) return;
  // Per-row ascending nonzero indices: one O(k) scan replaces a zero test
  // per (p, column-block) — the win on one-hot rows, free on dense ones.
  unsigned int* nz = scratch_u32(k);
  const std::size_t n_wide = n - n % (2 * kNr);   // 32-column blocks
  const std::size_t n_panel = n - n % kNr;        // +16-column remainder
  for (std::size_t i = i0; i < i1; ++i) {
    const float* a_row = a + i * k;
    std::size_t nnz = 0;
    for (std::size_t p = 0; p < k; ++p) {
      if (a_row[p] != 0.0f) nz[nnz++] = static_cast<unsigned int>(p);
    }
    if (nnz == 0) continue;
    float* c_row = c + i * n;
    // 32 columns per pass: four independent accumulator chains hide the
    // vaddps latency that a single 16-column pair cannot.
    for (std::size_t j = 0; j < n_wide; j += 2 * kNr) {
      float* c_blk = c_row + j;
      __m256 acc0 = _mm256_loadu_ps(c_blk);
      __m256 acc1 = _mm256_loadu_ps(c_blk + 8);
      __m256 acc2 = _mm256_loadu_ps(c_blk + 16);
      __m256 acc3 = _mm256_loadu_ps(c_blk + 24);
      for (std::size_t t = 0; t < nnz; ++t) {
        const std::size_t p = nz[t];
        const __m256 va = _mm256_set1_ps(a_row[p]);
        const float* b_row = b + p * n + j;
        acc0 = _mm256_add_ps(acc0,
                             _mm256_mul_ps(va, _mm256_loadu_ps(b_row)));
        acc1 = _mm256_add_ps(acc1,
                             _mm256_mul_ps(va, _mm256_loadu_ps(b_row + 8)));
        acc2 = _mm256_add_ps(acc2,
                             _mm256_mul_ps(va, _mm256_loadu_ps(b_row + 16)));
        acc3 = _mm256_add_ps(acc3,
                             _mm256_mul_ps(va, _mm256_loadu_ps(b_row + 24)));
      }
      _mm256_storeu_ps(c_blk, acc0);
      _mm256_storeu_ps(c_blk + 8, acc1);
      _mm256_storeu_ps(c_blk + 16, acc2);
      _mm256_storeu_ps(c_blk + 24, acc3);
    }
    if (n_wide < n_panel) {
      float* c_blk = c_row + n_wide;
      __m256 acc0 = _mm256_loadu_ps(c_blk);
      __m256 acc1 = _mm256_loadu_ps(c_blk + 8);
      for (std::size_t t = 0; t < nnz; ++t) {
        const std::size_t p = nz[t];
        const __m256 va = _mm256_set1_ps(a_row[p]);
        const float* b_row = b + p * n + n_wide;
        acc0 = _mm256_add_ps(acc0,
                             _mm256_mul_ps(va, _mm256_loadu_ps(b_row)));
        acc1 = _mm256_add_ps(acc1,
                             _mm256_mul_ps(va, _mm256_loadu_ps(b_row + 8)));
      }
      _mm256_storeu_ps(c_blk, acc0);
      _mm256_storeu_ps(c_blk + 8, acc1);
    }
    if (n_panel < n) {
      // Scalar tail columns: same loops as nn_naive_range restricted to
      // [n_panel, n) — identical per-element chains and skip granularity.
      for (std::size_t t = 0; t < nnz; ++t) {
        const std::size_t p = nz[t];
        const float av = a_row[p];
        const float* b_row = b + p * n;
        for (std::size_t j = n_panel; j < n; ++j) c_row[j] += av * b_row[j];
      }
    }
  }
}

// ---- gemv over a nonzero list (the fused f32 serving head) ---------------

namespace {

/// out[0 : 8 * kAcc) from kAcc ymm accumulators over the whole list: the
/// columns of one pass, each a chain from +0.0f in list order.
template <std::size_t kAcc>
void gemv_nz_pass(const float* vals, const std::uint32_t* rows,
                  std::size_t nnz, const float* w, std::size_t n,
                  float* out) {
  __m256 acc[kAcc];
#pragma GCC unroll 8
  for (std::size_t i = 0; i < kAcc; ++i) acc[i] = _mm256_setzero_ps();
  for (std::size_t t = 0; t < nnz; ++t) {
    const __m256 va = _mm256_set1_ps(vals[t]);
    const float* w_row = w + std::size_t{rows[t]} * n;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kAcc; ++i) {
      acc[i] = _mm256_add_ps(
          acc[i], _mm256_mul_ps(va, _mm256_loadu_ps(w_row + 8 * i)));
    }
  }
#pragma GCC unroll 8
  for (std::size_t i = 0; i < kAcc; ++i) _mm256_storeu_ps(out + 8 * i, acc[i]);
}

}  // namespace

void gemv_nz_f32(const float* vals, const std::uint32_t* rows,
                 std::size_t nnz, const float* w, std::size_t n, float* out) {
  std::size_t j = 0;
  for (; j + 64 <= n; j += 64) {
    gemv_nz_pass<8>(vals, rows, nnz, w + j, n, out + j);
  }
  const std::size_t blocks = (n - j) / 8;
  switch (blocks) {
    case 7: gemv_nz_pass<7>(vals, rows, nnz, w + j, n, out + j); break;
    case 6: gemv_nz_pass<6>(vals, rows, nnz, w + j, n, out + j); break;
    case 5: gemv_nz_pass<5>(vals, rows, nnz, w + j, n, out + j); break;
    case 4: gemv_nz_pass<4>(vals, rows, nnz, w + j, n, out + j); break;
    case 3: gemv_nz_pass<3>(vals, rows, nnz, w + j, n, out + j); break;
    case 2: gemv_nz_pass<2>(vals, rows, nnz, w + j, n, out + j); break;
    case 1: gemv_nz_pass<1>(vals, rows, nnz, w + j, n, out + j); break;
    default: break;
  }
  // Scalar tail columns: the same chain, one column at a time.
  for (j += 8 * blocks; j < n; ++j) {
    float acc = 0.0f;
    for (std::size_t t = 0; t < nnz; ++t) {
      acc += vals[t] * w[std::size_t{rows[t]} * n + j];
    }
    out[j] = acc;
  }
}

// ---- tn: c[i0:i1, :] += a[:, i0:i1]^T * b ---------------------------------
// a is [k x m] row-major; output row i is driven by column i of a, so the
// six broadcast values per k-step are contiguous loads a[p*m + i .. i+5].

void tn_f32_range(const float* a, const float* b, float* c, std::size_t k,
                  std::size_t m, std::size_t n, std::size_t i0,
                  std::size_t i1) {
  const std::size_t n_panel = n - n % kNr;
  for (std::size_t j = 0; j < n_panel; j += kNr) {
    std::size_t i = i0;
    for (; i + kMr <= i1; i += kMr) {
      __m256 acc0[kMr], acc1[kMr];
      for (std::size_t r = 0; r < kMr; ++r) {
        const float* c_row = c + (i + r) * n + j;
        acc0[r] = _mm256_loadu_ps(c_row);
        acc1[r] = _mm256_loadu_ps(c_row + 8);
      }
      for (std::size_t p = 0; p < k; ++p) {
        const float* b_row = b + p * n + j;
        const __m256 b0 = _mm256_loadu_ps(b_row);
        const __m256 b1 = _mm256_loadu_ps(b_row + 8);
        const float* a_col = a + p * m + i;
        for (std::size_t r = 0; r < kMr; ++r) {
          const float av = a_col[r];
          if (av == 0.0f) continue;
          const __m256 va = _mm256_set1_ps(av);
          acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(va, b0));
          acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(va, b1));
        }
      }
      for (std::size_t r = 0; r < kMr; ++r) {
        float* c_row = c + (i + r) * n + j;
        _mm256_storeu_ps(c_row, acc0[r]);
        _mm256_storeu_ps(c_row + 8, acc1[r]);
      }
    }
    for (; i < i1; ++i) {
      float* c_row = c + i * n + j;
      __m256 acc0 = _mm256_loadu_ps(c_row);
      __m256 acc1 = _mm256_loadu_ps(c_row + 8);
      for (std::size_t p = 0; p < k; ++p) {
        const float av = a[p * m + i];
        if (av == 0.0f) continue;
        const float* b_row = b + p * n + j;
        const __m256 va = _mm256_set1_ps(av);
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(b_row)));
        acc1 = _mm256_add_ps(acc1,
                             _mm256_mul_ps(va, _mm256_loadu_ps(b_row + 8)));
      }
      _mm256_storeu_ps(c_row, acc0);
      _mm256_storeu_ps(c_row + 8, acc1);
    }
  }
  if (n_panel < n) {
    for (std::size_t i = i0; i < i1; ++i) {
      float* c_row = c + i * n;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = a[p * m + i];
        if (av == 0.0f) continue;
        const float* b_row = b + p * n;
        for (std::size_t j = n_panel; j < n; ++j) c_row[j] += av * b_row[j];
      }
    }
  }
}

// ---- nt: c[i0:i1, :] += a[i0:i1, :] * b^T ---------------------------------
// b is [n x k] row-major. 16 B rows are packed into a transposed panel
// (panel[p*16 + t] = b[(j+t)*k + p]) so the inner loop is the broadcast
// kernel again; the pack cost is amortized over all rows of the stripe.
// Accumulators start at 0.0f and C is updated once per tile — the same
// local-dot-product-then-add chain as nt_naive_range, so results stay
// bit-identical. No zero-skip: the naive nt kernel computes every term.

void nt_f32_range(const float* a, const float* b, float* c, std::size_t k,
                  std::size_t n, std::size_t i0, std::size_t i1) {
  const std::size_t n_panel = n - n % kNr;
  if (n_panel > 0 && k > 0) {
    float* panel = scratch_f32(kNr * k);
    for (std::size_t j = 0; j < n_panel; j += kNr) {
      for (std::size_t t = 0; t < kNr; ++t) {
        const float* b_row = b + (j + t) * k;
        for (std::size_t p = 0; p < k; ++p) panel[p * kNr + t] = b_row[p];
      }
      std::size_t i = i0;
      for (; i + kMr <= i1; i += kMr) {
        __m256 acc0[kMr], acc1[kMr];
        for (std::size_t r = 0; r < kMr; ++r) {
          acc0[r] = _mm256_setzero_ps();
          acc1[r] = _mm256_setzero_ps();
        }
        for (std::size_t p = 0; p < k; ++p) {
          const float* panel_row = panel + p * kNr;
          const __m256 b0 = _mm256_loadu_ps(panel_row);
          const __m256 b1 = _mm256_loadu_ps(panel_row + 8);
          for (std::size_t r = 0; r < kMr; ++r) {
            const __m256 va = _mm256_set1_ps(a[(i + r) * k + p]);
            acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(va, b0));
            acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(va, b1));
          }
        }
        for (std::size_t r = 0; r < kMr; ++r) {
          float* c_row = c + (i + r) * n + j;
          _mm256_storeu_ps(c_row,
                           _mm256_add_ps(_mm256_loadu_ps(c_row), acc0[r]));
          _mm256_storeu_ps(
              c_row + 8, _mm256_add_ps(_mm256_loadu_ps(c_row + 8), acc1[r]));
        }
      }
      for (; i < i1; ++i) {
        __m256 acc0 = _mm256_setzero_ps();
        __m256 acc1 = _mm256_setzero_ps();
        const float* a_row = a + i * k;
        for (std::size_t p = 0; p < k; ++p) {
          const float* panel_row = panel + p * kNr;
          const __m256 va = _mm256_set1_ps(a_row[p]);
          acc0 = _mm256_add_ps(acc0,
                               _mm256_mul_ps(va, _mm256_loadu_ps(panel_row)));
          acc1 = _mm256_add_ps(
              acc1, _mm256_mul_ps(va, _mm256_loadu_ps(panel_row + 8)));
        }
        float* c_row = c + i * n + j;
        _mm256_storeu_ps(c_row, _mm256_add_ps(_mm256_loadu_ps(c_row), acc0));
        _mm256_storeu_ps(c_row + 8,
                         _mm256_add_ps(_mm256_loadu_ps(c_row + 8), acc1));
      }
    }
  }
  if (n_panel < n) {
    for (std::size_t i = i0; i < i1; ++i) {
      const float* a_row = a + i * k;
      float* c_row = c + i * n;
      for (std::size_t j = n_panel; j < n; ++j) {
        const float* b_row = b + j * k;
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
        c_row[j] += acc;
      }
    }
  }
}

}  // namespace pp::tensor::simd

#else  // !(__AVX2__ && __FMA__)

// Stub build (PP_SIMD_KERNELS=OFF or a compiler without -mavx2/-mfma):
// the dispatcher reports SIMD unavailable and never routes here.
#include <cstdlib>

namespace pp::tensor::simd {

void nn_f32_range(const float*, const float*, float*, std::size_t,
                  std::size_t, std::size_t, std::size_t) {
  std::abort();
}
void tn_f32_range(const float*, const float*, float*, std::size_t,
                  std::size_t, std::size_t, std::size_t, std::size_t) {
  std::abort();
}
void nt_f32_range(const float*, const float*, float*, std::size_t,
                  std::size_t, std::size_t, std::size_t) {
  std::abort();
}
void gemv_nz_f32(const float*, const std::uint32_t*, std::size_t,
                 const float*, std::size_t, float*) {
  std::abort();
}

}  // namespace pp::tensor::simd

#endif
