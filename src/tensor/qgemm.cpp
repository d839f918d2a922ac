#include "tensor/qgemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "tensor/cpu_dispatch.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_simd.hpp"

namespace pp::tensor {

namespace {

/// A denormal max_abs can underflow the /127 division to zero; clamping to
/// the smallest normal float keeps q = v/scale finite and the scale/2
/// error bound valid.
float symmetric_scale(float max_abs) {
  const float scale = max_abs > 0 ? max_abs / 127.0f : 1.0f;
  return std::max(scale, std::numeric_limits<float>::min());
}

/// The codec rule: NaN -> 0, ±Inf saturates via the float-side clamp.
/// Branch-free (reciprocal multiply, nearbyint, clamp, select) so the
/// per-row encode loops vectorize — a divide or a branchy store per
/// element costs as much as the GEMM the encoding feeds. A NaN input
/// keeps the cast in the not-taken select arm, so no NaN is ever
/// converted; ±Inf and overflowing products saturate through the clamp.
std::int8_t quantize_symmetric(float v, float inv_scale) {
  const float t =
      std::clamp(std::nearbyintf(v * inv_scale), -127.0f, 127.0f);
  return std::isnan(v) ? std::int8_t{0} : static_cast<std::int8_t>(t);
}

/// Exponent-field threshold: bit patterns at or above it are ±Inf / NaN.
constexpr std::uint32_t kF32InfBits = 0x7f800000u;

/// Max |v| over the finite entries. IEEE magnitude ordering equals
/// unsigned ordering of the sign-stripped bit pattern, so masking the
/// non-finite lanes to 0 turns this into a plain unsigned-max reduction —
/// which vectorizes, unlike a conditional float max (GCC will not
/// reassociate FP maxima around possible NaNs).
float finite_max_abs(const float* v, std::size_t n) {
  std::uint32_t max_bits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, &v[i], sizeof(bits));
    bits &= 0x7fffffffu;
    // Compare-derived bitmask, not a ?: select — GCC refuses to vectorize
    // a COND_EXPR feeding a reduction but takes the AND.
    const std::uint32_t keep =
        -static_cast<std::uint32_t>(bits < kF32InfBits);
    max_bits = std::max(max_bits, bits & keep);
  }
  float out;
  std::memcpy(&out, &max_bits, sizeof(out));
  return out;
}

/// Whether the quantization codec loops should run through the AVX2
/// kernels in qgemm_avx2.cpp. Gated on the *dispatched* GEMM kernel, not
/// just ISA support, so PP_GEMM_FORCE_KERNEL=blocked|naive exercises the
/// fully portable pipeline end to end; the vector codec is bit-exact to
/// the scalar loops (same rounding, clamps, NaN handling and
/// order-independent reductions), so the choice never changes encoded
/// bytes or scales.
bool simd_codec_active() {
  return gemm_simd_available() &&
         gemm_dispatched_kernel() == GemmKernel::kSimd;
}

float finite_max_abs_dispatch(const float* v, std::size_t n);

void encode_symmetric_dispatch(const float* v, std::int8_t* out,
                               std::size_t n, float inv_scale);

// Same tiling as the f32 kernel; the B tile is half the bytes, the C tile
// (i32) the same.
constexpr std::size_t kMc = 64;
constexpr std::size_t kKc = 128;
constexpr std::size_t kNc = 256;

void nn_i32_naive_range(const std::int8_t* a, const std::int8_t* b,
                        std::int32_t* c, std::size_t k, std::size_t n,
                        std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    std::int32_t* c_row = c + i * n;
    const std::int8_t* a_row = a + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const std::int32_t a_ip = a_row[p];
      if (a_ip == 0) continue;  // one-hot / padded inputs make this common
      const std::int8_t* b_row = b + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        c_row[j] += a_ip * static_cast<std::int32_t>(b_row[j]);
      }
    }
  }
}

void nn_i32_blocked_range(const std::int8_t* a, const std::int8_t* b,
                          std::int32_t* c, std::size_t k, std::size_t n,
                          std::size_t i0, std::size_t i1) {
  for (std::size_t ib = i0; ib < i1; ib += kMc) {
    const std::size_t i_end = std::min(ib + kMc, i1);
    for (std::size_t pb = 0; pb < k; pb += kKc) {
      const std::size_t p_end = std::min(pb + kKc, k);
      for (std::size_t jb = 0; jb < n; jb += kNc) {
        const std::size_t j_end = std::min(jb + kNc, n);
        std::size_t i = ib;
        // 4-row micro-kernel: each B row is read once and folded into four
        // output rows from registers (mirrors the f32 kernel).
        for (; i + 4 <= i_end; i += 4) {
          const std::int8_t* a0 = a + (i + 0) * k;
          const std::int8_t* a1 = a + (i + 1) * k;
          const std::int8_t* a2 = a + (i + 2) * k;
          const std::int8_t* a3 = a + (i + 3) * k;
          std::int32_t* c0 = c + (i + 0) * n;
          std::int32_t* c1 = c + (i + 1) * n;
          std::int32_t* c2 = c + (i + 2) * n;
          std::int32_t* c3 = c + (i + 3) * n;
          for (std::size_t p = pb; p < p_end; ++p) {
            const std::int32_t v0 = a0[p], v1 = a1[p], v2 = a2[p],
                               v3 = a3[p];
            if (v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0) continue;
            const std::int8_t* b_row = b + p * n;
            for (std::size_t j = jb; j < j_end; ++j) {
              const std::int32_t bv = b_row[j];
              c0[j] += v0 * bv;
              c1[j] += v1 * bv;
              c2[j] += v2 * bv;
              c3[j] += v3 * bv;
            }
          }
        }
        for (; i < i_end; ++i) {
          const std::int8_t* a_row = a + i * k;
          std::int32_t* c_row = c + i * n;
          for (std::size_t p = pb; p < p_end; ++p) {
            const std::int32_t a_ip = a_row[p];
            if (a_ip == 0) continue;
            const std::int8_t* b_row = b + p * n;
            for (std::size_t j = jb; j < j_end; ++j) {
              c_row[j] += a_ip * static_cast<std::int32_t>(b_row[j]);
            }
          }
        }
      }
    }
  }
}

float finite_max_abs_dispatch(const float* v, std::size_t n) {
  return simd_codec_active() ? simd::finite_max_abs_f32(v, n)
                             : finite_max_abs(v, n);
}

void encode_symmetric_dispatch(const float* v, std::int8_t* out,
                               std::size_t n, float inv_scale) {
  if (simd_codec_active()) {
    simd::quantize_symmetric_i8(v, out, n, inv_scale);
    return;
  }
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = quantize_symmetric(v[j], inv_scale);
  }
}

}  // namespace

// ------------------------------------------------------------ row encoders

float quantize_row(const float* v, std::int8_t* out, std::size_t n) {
  const float scale = symmetric_scale(finite_max_abs_dispatch(v, n));
  encode_symmetric_dispatch(v, out, n, 1.0f / scale);
  return scale;
}

void quantize_row_affine(const float* v, std::int8_t* out, std::size_t n,
                         float* scale_out, std::int32_t* zero_point_out) {
  // Range over the finite entries, nudged to include 0 so the zero point
  // stays in int8 range and exact zeros encode exactly. Same bit-pattern
  // trick as finite_max_abs, run per sign: two unsigned-max reductions
  // (largest finite positive, largest-magnitude finite negative).
  float hi, lo_mag;
  if (simd_codec_active()) {
    simd::finite_range_f32(v, n, &hi, &lo_mag);
  } else {
    std::uint32_t hi_bits = 0, lo_bits = 0;
    for (std::size_t j = 0; j < n; ++j) {
      std::uint32_t bits;
      std::memcpy(&bits, &v[j], sizeof(bits));
      const std::uint32_t mag = bits & 0x7fffffffu;
      const std::uint32_t keep =
          -static_cast<std::uint32_t>(mag < kF32InfBits);
      const std::uint32_t neg = -(bits >> 31);
      hi_bits = std::max(hi_bits, mag & keep & ~neg);
      lo_bits = std::max(lo_bits, mag & keep & neg);
    }
    std::memcpy(&hi, &hi_bits, sizeof(hi));
    std::memcpy(&lo_mag, &lo_bits, sizeof(lo_mag));
  }
  const float lo = -lo_mag;
  // Divide before subtracting: hi - lo can overflow to +Inf for finite
  // extreme-magnitude rows (e.g. hi = 2e38, lo = -2e38), which would
  // defeat the scale clamp and dequantize finite input to NaN.
  float scale = hi > lo ? hi / 255.0f - lo / 255.0f : 1.0f;
  scale = std::max(scale, std::numeric_limits<float>::min());
  const float inv_scale = 1.0f / scale;
  const auto zp = static_cast<std::int32_t>(std::clamp(
      std::nearbyintf(-128.0f - lo * inv_scale), -128.0f, 127.0f));
  *scale_out = scale;
  *zero_point_out = zp;
  if (simd_codec_active()) {
    simd::quantize_affine_i8(v, out, n, inv_scale, zp);
    return;
  }
  const auto zpf = static_cast<float>(zp);
  for (std::size_t j = 0; j < n; ++j) {
    const float x = v[j];
    const float t =
        std::clamp(std::nearbyintf(x * inv_scale) + zpf, -128.0f, 127.0f);
    // NaN dequantizes to 0 (encodes as the zero point); the select keeps
    // the loop branch-free and the NaN out of the int cast.
    out[j] = std::isnan(x) ? static_cast<std::int8_t>(zp)
                           : static_cast<std::int8_t>(t);
  }
}

// ---------------------------------------------------------- QuantizedMatrix

QuantizedMatrix::QuantizedMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0) {
  scales_.assign(std::max<std::size_t>(rows, 1), 1.0f);
  zero_points_.assign(1, 0);
}

QuantizedMatrix QuantizedMatrix::quantize(const Matrix& m) {
  QuantizedMatrix q;
  q.rows_ = m.rows();
  q.cols_ = m.cols();
  q.data_.resize(m.size());
  q.scales_.assign(1, quantize_row(m.data(), q.data_.data(), m.size()));
  q.zero_points_.assign(1, 0);
  return q;
}

QuantizedMatrix QuantizedMatrix::quantize_rows(const Matrix& m) {
  QuantizedMatrix q;
  q.rows_ = m.rows();
  q.cols_ = m.cols();
  q.data_.resize(m.size());
  q.scales_.assign(std::max<std::size_t>(m.rows(), 1), 1.0f);
  q.zero_points_.assign(1, 0);
  const std::size_t cols = m.cols();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    q.scales_[r] = quantize_row(m.data() + r * cols,
                                q.data_.data() + r * cols, cols);
  }
  return q;
}

QuantizedMatrix QuantizedMatrix::quantize_rows_affine(const Matrix& m) {
  QuantizedMatrix q;
  q.rows_ = m.rows();
  q.cols_ = m.cols();
  q.data_.resize(m.size());
  q.scales_.assign(std::max<std::size_t>(m.rows(), 1), 1.0f);
  q.zero_points_.assign(std::max<std::size_t>(m.rows(), 1), 0);
  const std::size_t cols = m.cols();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    quantize_row_affine(m.data() + r * cols, q.data_.data() + r * cols, cols,
                        &q.scales_[r], &q.zero_points_[r]);
  }
  return q;
}

QuantizedMatrix QuantizedMatrix::from_raw(std::size_t rows, std::size_t cols,
                                          float scale,
                                          std::vector<std::int8_t> data) {
  if (data.size() != rows * cols) {
    throw std::invalid_argument("QuantizedMatrix::from_raw: size mismatch");
  }
  QuantizedMatrix q;
  q.rows_ = rows;
  q.cols_ = cols;
  q.data_ = std::move(data);
  q.scales_.assign(1, scale);
  q.zero_points_.assign(1, 0);
  return q;
}

Matrix QuantizedMatrix::dequantize() const {
  Matrix m(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      m.at(r, c) = dequant(r, c);
    }
  }
  return m;
}

bool QuantizedMatrix::symmetric() const {
  return std::all_of(zero_points_.begin(), zero_points_.end(),
                     [](std::int32_t zp) { return zp == 0; });
}

void QuantizedMatrix::set_row_scale(std::size_t r, float scale) {
  if (scales_.size() == 1 && rows_ > 1) {
    scales_.assign(rows_, scales_[0]);
  }
  scales_[r] = scale;
}

// ------------------------------------------------------------------- qgemm

void qgemm_nn_i32_naive(const std::int8_t* a, const std::int8_t* b,
                        std::int32_t* c, std::size_t m, std::size_t k,
                        std::size_t n) {
  nn_i32_naive_range(a, b, c, k, n, 0, m);
}

void qgemm_nn_i32_blocked(const std::int8_t* a, const std::int8_t* b,
                          std::int32_t* c, std::size_t m, std::size_t k,
                          std::size_t n) {
  nn_i32_blocked_range(a, b, c, k, n, 0, m);
}

void qgemm_nn_i32_simd(const std::int8_t* a, const std::int8_t* b,
                       std::int32_t* c, std::size_t m, std::size_t k,
                       std::size_t n) {
  // The u8 x s8 kernel's i32 headroom bound (gemm_simd.hpp) caps k; the
  // blocked kernel is exact for any k reachable here, so fall back.
  if (!gemm_simd_available() || k > simd::kQGemmSimdMaxK) {
    qgemm_nn_i32_blocked(a, b, c, m, k, n);
    return;
  }
  simd::nn_i8i32_range(a, b, c, k, n, 0, m);
}

Matrix qgemm(const QuantizedMatrix& a, const QuantizedMatrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("qgemm: inner dimension mismatch");
  }
  if (!b.per_tensor() || !b.symmetric()) {
    throw std::invalid_argument(
        "qgemm: B must be per-tensor symmetric (weights)");
  }
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix out(m, n);
  if (m == 0 || k == 0 || n == 0) return out;

  // Reused per thread: the serving loop calls qgemm three times per
  // batch, and a fresh zeroed allocation per call is measurable at
  // gemv-sized products (B = 1 scoring).
  thread_local std::vector<std::int32_t> acc;
  acc.assign(m * n, 0);
  switch (gemm_dispatched_kernel()) {
    case GemmKernel::kNaive:
      qgemm_nn_i32_naive(a.data(), b.data(), acc.data(), m, k, n);
      break;
    case GemmKernel::kSimd:
      qgemm_nn_i32_simd(a.data(), b.data(), acc.data(), m, k, n);
      break;
    default:
      qgemm_nn_i32_blocked(a.data(), b.data(), acc.data(), m, k, n);
      break;
  }

  // Zero-point correction: sum_p (qa - za) * qb = acc - za * colsum(B).
  std::vector<std::int32_t> col_sums;
  if (!a.symmetric()) {
    col_sums.assign(n, 0);
    const std::int8_t* bd = b.data();
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t j = 0; j < n; ++j) {
        col_sums[j] += static_cast<std::int32_t>(bd[p * n + j]);
      }
    }
  }
  const float sb = b.scale();
  const bool simd_epilogue = simd_codec_active();
  for (std::size_t i = 0; i < m; ++i) {
    const float s = a.scale(i) * sb;
    const std::int32_t za = a.zero_point(i);
    float* out_row = out.data() + i * n;
    const std::int32_t* acc_row = acc.data() + i * n;
    if (za == 0 && simd_epilogue) {
      simd::scale_i32_f32(acc_row, out_row, n, s);
      continue;
    }
    for (std::size_t j = 0; j < n; ++j) {
      const std::int32_t corrected =
          za == 0 ? acc_row[j] : acc_row[j] - za * col_sums[j];
      out_row[j] = s * static_cast<float>(corrected);
    }
  }
  return out;
}

// -------------------------------------------------------- QuantizedWeights

QuantizedWeights::QuantizedWeights(const Matrix& w)
    : q_(QuantizedMatrix::quantize(w)), col_sums_(w.cols(), 0) {
  const std::size_t k = q_.rows(), n = q_.cols();
  const std::int8_t* wd = q_.data();
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) col_sums_[j] += wd[p * n + j];
  }
  if (!avx512_vnni_available() || k > simd::kQGemmSimdMaxK) return;
  // Padding bytes stay 128 (W = 0); see the layout in gemm_simd.hpp.
  const std::size_t blocks = (n + 15) / 16;
  panel_.assign(((k + 3) / 4) * blocks * 64, 128);
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) {
      panel_[((p / 4) * blocks + j / 16) * 64 + (j % 16) * 4 + p % 4] =
          static_cast<unsigned char>(wd[p * n + j] + 128);
    }
  }
}

void QuantizedWeights::multiply(const std::int8_t* a, std::size_t m,
                                std::int32_t* c) const {
  const std::size_t k = q_.rows(), n = q_.cols();
  const GemmKernel kernel = gemm_dispatched_kernel();
  if (kernel == GemmKernel::kSimd && !panel_.empty()) {
    simd::nn_i8i32_vnni(a, panel_.data(), c, m, k, n);
    return;
  }
  std::fill_n(c, m * n, 0);
  if (kernel == GemmKernel::kNaive) {
    nn_i32_naive_range(a, q_.data(), c, k, n, 0, m);
  } else if (kernel == GemmKernel::kSimd && k <= simd::kQGemmSimdMaxK) {
    simd::nn_i8i32_range(a, q_.data(), c, k, n, 0, m);
  } else {
    nn_i32_blocked_range(a, q_.data(), c, k, n, 0, m);
  }
}

}  // namespace pp::tensor
