// Internal declarations of the SIMD micro-kernel range functions.
// Definitions live in gemm_avx2.cpp / qgemm_avx2.cpp — compiled with
// -mavx2 -mfma — and qgemm_avx512.cpp — compiled with -mavx512f
// -mavx512bw -mavx512vnni — the only TUs in the tree built for more than
// baseline x86-64 (all with -ffp-contract=off, see the contraction
// contract in gemm.hpp). Callers MUST gate every AVX2 call on
// gemm_simd_available() and every *_avx512 / *_vnni call on
// avx512_vnni_available() (tensor/cpu_dispatch.hpp): when a TU is
// compiled without its ISA these functions abort, and when it is
// compiled with it they execute that ISA unconditionally.
//
// The f32 kernels implement the same per-element accumulation chains as
// the naive kernels (ascending p, separate mul+add rounding, and
// the per-(row, p) zero-skip), so their results are bit-identical — for
// finite and non-finite operands alike. The int8 kernel is exact integer
// arithmetic. Range signatures mirror the static *_range helpers in
// gemm.cpp.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pp::tensor::simd {

// nn: c[i0:i1, :] += a[i0:i1, :] * b, a is [m x k], b is [k x n].
void nn_f32_range(const float* a, const float* b, float* c, std::size_t k,
                  std::size_t n, std::size_t i0, std::size_t i1);

// tn: c[i0:i1, :] += a[:, i0:i1]^T * b, a is [k x m], b is [k x n].
void tn_f32_range(const float* a, const float* b, float* c, std::size_t k,
                  std::size_t m, std::size_t n, std::size_t i0,
                  std::size_t i1);

// nt: c[i0:i1, :] += a[i0:i1, :] * b^T, a is [m x k], b is [n x k].
void nt_f32_range(const float* a, const float* b, float* c, std::size_t k,
                  std::size_t n, std::size_t i0, std::size_t i1);

// gemv over an ascending nonzero list (tensor::gemv_nz): out[0:n) =
// sum_t vals[t] * w[rows[t] * n + j], each column from +0.0f in ascending
// t with separate mul and add; out is overwritten. The AVX2 lane holds up
// to 8 ymm accumulators (64 columns) per pass over the list and finishes
// a tail of n % 8 columns with scalar chains.
void gemv_nz_f32(const float* vals, const std::uint32_t* rows,
                 std::size_t nnz, const float* w, std::size_t n, float* out);

// int8 nn: c[i0:i1, :] += a[i0:i1, :] * b over int8 operands with exact
// i32 accumulation (vpmaddubsw/vpmaddwd, u8 operand swizzle + 128*colsum
// bias correction — see qgemm_avx2.cpp). Exact for the full int8 range
// including -128; requires k <= kQGemmSimdMaxK.
void nn_i8i32_range(const std::int8_t* a, const std::int8_t* b,
                    std::int32_t* c, std::size_t k, std::size_t n,
                    std::size_t i0, std::size_t i1);

/// i32 accumulator headroom bound for the u8 x s8 kernel: the widened
/// A operand is at most 255 and |B| at most 128, so sums stay exact while
/// k * 255 * 128 < 2^31. (The scalar int8 kernels allow k < 2^31 / 127^2;
/// both bounds are far above any layer width here.)
constexpr std::size_t kQGemmSimdMaxK = (1u << 31) / (255u * 128u);

// --- quantization codec kernels (qgemm_avx2.cpp) ---------------------------
// Bit-exact vector forms of the scalar encode/decode loops in qgemm.cpp:
// identical rounding (nearbyint under the current mode), identical clamp
// and NaN handling, and order-independent max reductions, so forcing a
// kernel via PP_GEMM_FORCE_KERNEL never changes encoded bytes or scales.

// Max |v| over the finite entries of v[0..n) (0.0f when none).
float finite_max_abs_f32(const float* v, std::size_t n);

// Finite range of v[0..n): *hi = largest finite positive entry (or 0),
// *lo_mag = largest finite negative magnitude (or 0).
void finite_range_f32(const float* v, std::size_t n, float* hi,
                      float* lo_mag);

// out[j] = clamp(nearbyint(v[j] * inv_scale), -127, 127) as int8;
// NaN -> 0.
void quantize_symmetric_i8(const float* v, std::int8_t* out, std::size_t n,
                           float inv_scale);

// out[j] = clamp(nearbyint(v[j] * inv_scale) + zp, -128, 127) as int8;
// NaN -> zp.
void quantize_affine_i8(const float* v, std::int8_t* out, std::size_t n,
                        float inv_scale, std::int32_t zp);

// out[j] = scale * float(acc[j]) — the symmetric dequant epilogue.
void scale_i32_f32(const std::int32_t* acc, float* out, std::size_t n,
                   float scale);

// --- AVX-512 VNNI int8 products (qgemm_avx512.cpp) --------------------------
// vpdpbusd multiplies unsigned bytes by signed bytes and adds each group
// of four products into an i32 lane. The weights are the unsigned
// operand: a [k x n] int8 matrix W is packed once (QuantizedWeights) into
// k-quads of W + 128,
//
//   panel[(q * blocks + jb) * 64 + 4 * t + s] = W[4q + s][16 jb + t] + 128
//
// with blocks = ceil(n / 16) column blocks of 16 and rows past k and
// columns past n padded with 128 (W = 0). One 64-byte load then feeds 16
// output columns x 4 k-steps against one broadcast signed A quad, and
// the product is exact: sum_p (W + 128) * a = sum_p W * a + 128 * rowsum(a),
// so each output row subtracts 128 * rowsum(a) once. An all-zero A quad
// adds nothing to either term, which is what lets one-hot input rows skip
// straight to their few nonzero quads. The i32 sums stay exact while
// k * 255 * 128 < 2^31 (kQGemmSimdMaxK).

// c[m x n] = a[m x k] * W, W given as its VNNI panel; c is overwritten.
void nn_i8i32_vnni(const std::int8_t* a, const unsigned char* panel,
                   std::int32_t* c, std::size_t m, std::size_t k,
                   std::size_t n);

// --- vector sigmoid / tanh (tensor/vmath.hpp) -------------------------------
// y[i] = sigmoid(x[i]) / tanh(x[i]) for i < n, bit-identical to the scalar
// twins in vmath.cpp; x may alias y.
void sigmoid_f32_avx2(const float* x, float* y, std::size_t n);
void tanh_f32_avx2(const float* x, float* y, std::size_t n);

/// The constants every sigmoid/tanh lane shares (vmath.hpp has the
/// formulas). Cephes expf / tanhf coefficients.
namespace vmath {
constexpr float kLog2e = 1.44269504088896341f;
/// 1.5 * 2^23: (v + kRound) - kRound rounds |v| < 2^22 to nearest even.
constexpr float kRound = 12582912.0f;
/// ln 2 split so that n * kLn2Hi is exact for the n reached here.
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExp0 = 1.9875691500e-4f;
constexpr float kExp1 = 1.3981999507e-3f;
constexpr float kExp2 = 8.3334519073e-3f;
constexpr float kExp3 = 4.1665795894e-2f;
constexpr float kExp4 = 1.6666665459e-1f;
constexpr float kExp5 = 5.0000001201e-1f;
/// exp(-t) is evaluated for t <= 87, which keeps it a normal float.
constexpr float kExpMaxArg = 87.0f;
/// Below this |x| tanh uses its odd polynomial instead of exp.
constexpr float kTanhSmall = 0.625f;
constexpr float kTanh0 = -5.70498872745e-3f;
constexpr float kTanh1 = 2.06390887954e-2f;
constexpr float kTanh2 = 5.37397155531e-2f;
constexpr float kTanh3 = 1.33314422036e-1f;
constexpr float kTanh4 = 3.33332819422e-1f;
}  // namespace vmath

}  // namespace pp::tensor::simd
