// AVX2 int8 x int8 -> i32 GEMM micro-kernel (vpmaddubsw + vpmaddwd) —
// compiled with per-file -mavx2 -mfma like gemm_avx2.cpp.
//
// vpmaddubsw multiplies UNSIGNED bytes by signed bytes. The unsigned
// operand here is B (the weights), swizzled during the panel pack:
// bu = b ^ 0x80 (= b + 128), removed after the k loop with the exact
// per-row correction  c[i][:] -= 128 * rowsum(a_i)  — a single broadcast
// subtract, because sum_p (b[p][j] + 128) * a[i][p] differs from the
// true product by 128 * sum_p a[i][p] independent of j. Swizzling B
// instead of A is what makes A-side sparsity cheap: serving inputs are
// one-hot context rows (mostly zero), a zero A byte contributes nothing
// to either the accumulator or the rowsum, so whole all-zero A k-quads
// are skipped from a per-row ascending quad-index list with no
// correction bookkeeping at all.
//
// vpmaddubsw SATURATES its i16 pair sums, and with bu up to 255 and A
// down to -128 a pair sum reaches -65280 — far outside i16. To stay
// bit-exact for the full int8 range (the -128 edge case included), bu is
// split during the pack into two halves that are each <= 128:
//
//   bhi = bu >> 1   (<= 127),   blo = bu - bhi   (<= 128)
//
// and each half gets its own vpmaddubsw: worst-case pair sums are then
// 128*(-128)*2 = -32768 (exactly i16 min, representable) and
// 128*127*2 = 32512 — no saturation is possible, and
// (blo + bhi) * a == bu * a exactly in integer arithmetic. Each i16
// pair-sum vector is widened with vpmaddwd against ones and accumulated
// in i32, which is exact while k <= kQGemmSimdMaxK (gemm_simd.hpp); the
// dispatcher falls back to the naive kernel beyond that.
//
// B is packed per 16-column tile in k-quads (panel[q][t][0..3] =
// swizzled b[4q+s][j+t], zero-padded), so one 32-byte load feeds 8
// output columns x 4 k-steps and the two vpmaddwd pair sums that land in
// one i32 lane belong to the same output column. A k-quads are broadcast
// raw (signed) from the row; only the final partial quad is copied
// through a zero-padded staging word. Zero padding is exact on both
// sides: a padded A byte is 0, so its product and rowsum term are 0
// whatever the padded B byte holds (also 0 here).
//
// Like gemm_avx2.cpp, this TU must not instantiate std:: templates
// (COMDAT symbols would carry AVX2 code into baseline TUs); scratch is
// raw new[]/delete[] and min() is a local helper.
#include "tensor/gemm_simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstring>

namespace pp::tensor::simd {

namespace {

constexpr std::size_t kNr = 16;  // columns per panel: two ymm of i32

struct ByteScratch {
  unsigned char* data = nullptr;
  std::size_t cap = 0;
  ~ByteScratch() { delete[] data; }
  unsigned char* get(std::size_t n) {
    if (n > cap) {
      delete[] data;
      data = new unsigned char[n];
      cap = n;
    }
    return data;
  }
};

std::size_t min_sz(std::size_t a, std::size_t b) { return a < b ? a : b; }

/// The 4 A bytes of k-quad q in row `a_row`, zero-padded past k.
std::uint32_t a_quad(const std::int8_t* a_row, std::size_t q,
                     std::size_t k) {
  std::uint32_t quad = 0;
  const std::size_t p0 = q * 4;
  std::memcpy(&quad, a_row + p0, min_sz(std::size_t{4}, k - p0));
  return quad;
}

/// Pack-free path for small row counts (gemv-shaped products): the
/// maddubs panel pack costs O(2*k*n) byte swizzles per tile, which
/// dwarfs a single row's O(k*n) MACs. Instead B rows are read in place:
/// 16 bytes sign-extended to i16, multiplied by the broadcast A value
/// with vpmullw — exact, |a*b| <= 128*128 fits i16 — then widened to
/// i32 and accumulated. The row's nonzero indices are collected once
/// (ascending, so the term order matches the scalar kernels) and every
/// column block walks only that list: serving feature rows are mostly
/// one-hot, and re-scanning k zeros per 16-column block would cost more
/// than the multiplies it feeds.
void nn_i8i32_rowwise(const std::int8_t* a, const std::int8_t* b,
                      std::int32_t* c, std::size_t k, std::size_t n,
                      std::size_t i0, std::size_t i1) {
  thread_local ByteScratch nz_scratch;
  std::uint32_t* nz = reinterpret_cast<std::uint32_t*>(
      nz_scratch.get(k * sizeof(std::uint32_t)));
  const std::size_t n_panel = n - n % 16;
  for (std::size_t i = i0; i < i1; ++i) {
    const std::int8_t* a_row = a + i * k;
    std::size_t nnz = 0;
    for (std::size_t p = 0; p < k; ++p) {
      if (a_row[p] != 0) nz[nnz++] = static_cast<std::uint32_t>(p);
    }
    if (nnz == 0) continue;
    std::int32_t* c_row = c + i * n;
    for (std::size_t j = 0; j < n_panel; j += 16) {
      __m256i acc0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(c_row + j));
      __m256i acc1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(c_row + j + 8));
      for (std::size_t t = 0; t < nnz; ++t) {
        const std::size_t p = nz[t];
        const __m256i va = _mm256_set1_epi16(static_cast<short>(a_row[p]));
        const __m128i bb = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + p * n + j));
        const __m256i prod =
            _mm256_mullo_epi16(_mm256_cvtepi8_epi16(bb), va);
        acc0 = _mm256_add_epi32(
            acc0, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod)));
        acc1 = _mm256_add_epi32(
            acc1, _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1)));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(c_row + j), acc0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(c_row + j + 8), acc1);
    }
    for (std::size_t t = 0; t < nnz && n_panel < n; ++t) {
      const std::size_t p = nz[t];
      const std::int32_t av = a_row[p];
      const std::int8_t* b_row = b + p * n;
      for (std::size_t j = n_panel; j < n; ++j) {
        c_row[j] += av * static_cast<std::int32_t>(b_row[j]);
      }
    }
  }
}

constexpr std::size_t kPanelMinRows = 8;

}  // namespace

void nn_i8i32_range(const std::int8_t* a, const std::int8_t* b,
                    std::int32_t* c, std::size_t k, std::size_t n,
                    std::size_t i0, std::size_t i1) {
  if (i0 >= i1 || n == 0 || k == 0) return;
  const std::size_t kq = (k + 3) / 4;  // k-quads per row, zero-padded
  const std::size_t rows = i1 - i0;
  if (rows < kPanelMinRows) {
    nn_i8i32_rowwise(a, b, c, k, n, i0, i1);
    return;
  }

  // Per-row prep, reused across every column tile: the 128*rowsum
  // correction, the ascending list of nonzero A k-quads, and the padded
  // final quad. One-hot rows shrink their quad list to a handful of
  // entries — the dominant cost saver on the serving path.
  thread_local ByteScratch row_scratch;
  unsigned char* raw = row_scratch.get(
      rows * (sizeof(std::int32_t) * 2 + sizeof(std::uint32_t) * (kq + 1)));
  std::int32_t* corr = reinterpret_cast<std::int32_t*>(raw);
  std::uint32_t* quad_count =
      reinterpret_cast<std::uint32_t*>(corr + rows);
  std::uint32_t* last_quad =
      reinterpret_cast<std::uint32_t*>(quad_count + rows);
  std::uint32_t* quad_idx = last_quad + rows;  // rows * kq
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int8_t* a_row = a + (i0 + r) * k;
    std::int32_t rowsum = 0;
    for (std::size_t p = 0; p < k; ++p) rowsum += a_row[p];
    corr[r] = rowsum * 128;
    std::uint32_t cnt = 0;
    std::uint32_t* idx = quad_idx + r * kq;
    for (std::size_t q = 0; q + 1 < kq; ++q) {
      std::uint32_t quad;
      std::memcpy(&quad, a_row + q * 4, sizeof(quad));
      if (quad != 0) idx[cnt++] = static_cast<std::uint32_t>(q);
    }
    last_quad[r] = a_quad(a_row, kq - 1, k);
    if (last_quad[r] != 0) idx[cnt++] = static_cast<std::uint32_t>(kq - 1);
    quad_count[r] = cnt;
  }

  // The B panel is re-packed per call; the pack is O(k*32) per tile
  // against the O(rows*k*16) products it feeds.
  thread_local ByteScratch panel_scratch;
  unsigned char* panel_lo = panel_scratch.get(2 * kq * 4 * kNr);
  unsigned char* panel_hi = panel_lo + kq * 4 * kNr;
  alignas(32) std::int32_t tmp[2 * 8];
  const __m256i ones = _mm256_set1_epi16(1);

  for (std::size_t j = 0; j < n; j += kNr) {
    const std::size_t jw = min_sz(kNr, n - j);
    for (std::size_t q = 0; q < kq; ++q) {
      unsigned char* lo = panel_lo + q * 4 * kNr;
      unsigned char* hi = panel_hi + q * 4 * kNr;
      const std::size_t p_hi = min_sz(k, q * 4 + 4);
      for (std::size_t t = 0; t < kNr; ++t) {
        unsigned char* lo_cell = lo + t * 4;
        unsigned char* hi_cell = hi + t * 4;
        std::size_t s = 0;
        if (t < jw) {
          for (std::size_t p = q * 4; p < p_hi; ++p, ++s) {
            const unsigned char bu = static_cast<unsigned char>(
                static_cast<unsigned char>(b[p * n + j + t]) ^ 0x80u);
            const unsigned char h = bu >> 1;
            hi_cell[s] = h;
            lo_cell[s] = static_cast<unsigned char>(bu - h);
          }
        }
        for (; s < 4; ++s) {
          lo_cell[s] = 0;
          hi_cell[s] = 0;
        }
      }
    }

    for (std::size_t r = 0; r < rows; ++r) {
      const std::int8_t* a_row = a + (i0 + r) * k;
      const std::uint32_t* idx = quad_idx + r * kq;
      const std::uint32_t cnt = quad_count[r];
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      for (std::uint32_t t = 0; t < cnt; ++t) {
        const std::size_t q = idx[t];
        std::uint32_t quad;
        if (q + 1 == kq) {
          quad = last_quad[r];
        } else {
          std::memcpy(&quad, a_row + q * 4, sizeof(quad));
        }
        const __m256i va =
            _mm256_set1_epi32(static_cast<std::int32_t>(quad));
        const unsigned char* lo = panel_lo + q * 4 * kNr;
        const unsigned char* hi = panel_hi + q * 4 * kNr;
        const __m256i b_lo0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lo));
        const __m256i b_lo1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lo + 32));
        const __m256i b_hi0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hi));
        const __m256i b_hi1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hi + 32));
        acc0 = _mm256_add_epi32(
            acc0, _mm256_madd_epi16(_mm256_maddubs_epi16(b_lo0, va), ones));
        acc0 = _mm256_add_epi32(
            acc0, _mm256_madd_epi16(_mm256_maddubs_epi16(b_hi0, va), ones));
        acc1 = _mm256_add_epi32(
            acc1, _mm256_madd_epi16(_mm256_maddubs_epi16(b_lo1, va), ones));
        acc1 = _mm256_add_epi32(
            acc1, _mm256_madd_epi16(_mm256_maddubs_epi16(b_hi1, va), ones));
      }
      const __m256i vcorr = _mm256_set1_epi32(corr[r]);
      std::int32_t* c_row = c + (i0 + r) * n + j;
      if (jw == kNr) {
        __m256i* c0 = reinterpret_cast<__m256i*>(c_row);
        __m256i* c1 = reinterpret_cast<__m256i*>(c_row + 8);
        _mm256_storeu_si256(
            c0, _mm256_add_epi32(_mm256_loadu_si256(c0),
                                 _mm256_sub_epi32(acc0, vcorr)));
        _mm256_storeu_si256(
            c1, _mm256_add_epi32(_mm256_loadu_si256(c1),
                                 _mm256_sub_epi32(acc1, vcorr)));
      } else {
        _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), acc0);
        _mm256_store_si256(reinterpret_cast<__m256i*>(tmp + 8), acc1);
        for (std::size_t t = 0; t < jw; ++t) c_row[t] += tmp[t] - corr[r];
      }
    }
  }
}

// --- quantization codec kernels --------------------------------------------

namespace {

/// Reduce a ymm of (sign-stripped, non-finite-masked) magnitudes to the
/// max lane. Unsigned compares are unnecessary: magnitudes are < 2^31.
std::uint32_t hmax_epi32(__m256i v) {
  __m128i m = _mm_max_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(m));
}

/// Pack 8 i32 lanes (already clamped into int8 range) to 8 bytes.
void store_i32x8_as_i8(std::int8_t* out, __m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i w = _mm_packs_epi32(lo, hi);       // 8 x i16
  const __m128i b = _mm_packs_epi16(w, _mm_setzero_si128());  // 8 x i8
  std::memcpy(out, &b, 8);
}

}  // namespace

float finite_max_abs_f32(const float* v, std::size_t n) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m256i inf_bits = _mm256_set1_epi32(0x7f800000);
  __m256i vmax = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bits = _mm256_castps_si256(_mm256_loadu_ps(v + i));
    const __m256i mag = _mm256_and_si256(bits, abs_mask);
    // keep = mag < inf_bits (signed compare is exact: both < 2^31)
    const __m256i keep = _mm256_cmpgt_epi32(inf_bits, mag);
    vmax = _mm256_max_epi32(vmax, _mm256_and_si256(mag, keep));
  }
  std::uint32_t max_bits = hmax_epi32(vmax);
  for (; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, v + i, sizeof(bits));
    bits &= 0x7fffffffu;
    if (bits < 0x7f800000u && bits > max_bits) max_bits = bits;
  }
  float out;
  std::memcpy(&out, &max_bits, sizeof(out));
  return out;
}

void finite_range_f32(const float* v, std::size_t n, float* hi,
                      float* lo_mag) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m256i inf_bits = _mm256_set1_epi32(0x7f800000);
  __m256i vhi = _mm256_setzero_si256();
  __m256i vlo = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bits = _mm256_castps_si256(_mm256_loadu_ps(v + i));
    const __m256i mag = _mm256_and_si256(bits, abs_mask);
    const __m256i keep = _mm256_cmpgt_epi32(inf_bits, mag);
    const __m256i neg = _mm256_srai_epi32(bits, 31);  // all-ones if v < 0
    const __m256i kept = _mm256_and_si256(mag, keep);
    vhi = _mm256_max_epi32(vhi, _mm256_andnot_si256(neg, kept));
    vlo = _mm256_max_epi32(vlo, _mm256_and_si256(neg, kept));
  }
  std::uint32_t hi_bits = hmax_epi32(vhi);
  std::uint32_t lo_bits = hmax_epi32(vlo);
  for (; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, v + i, sizeof(bits));
    const std::uint32_t mag = bits & 0x7fffffffu;
    if (mag >= 0x7f800000u) continue;
    if (bits >> 31) {
      if (mag > lo_bits) lo_bits = mag;
    } else {
      if (mag > hi_bits) hi_bits = mag;
    }
  }
  std::memcpy(hi, &hi_bits, sizeof(*hi));
  std::memcpy(lo_mag, &lo_bits, sizeof(*lo_mag));
}

void quantize_symmetric_i8(const float* v, std::int8_t* out, std::size_t n,
                           float inv_scale) {
  const __m256 vinv = _mm256_set1_ps(inv_scale);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(v + i);
    // nearbyint under the current rounding mode, like the scalar codec.
    const __m256 r = _mm256_round_ps(
        _mm256_mul_ps(x, vinv),
        _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
    // min/max pass NaN through from r (second operand is the constant),
    // matching std::clamp; the unord mask then forces those lanes to 0.
    const __m256 t = _mm256_min_ps(_mm256_max_ps(r, lo), hi);
    const __m256 unord = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
    __m256i q = _mm256_cvtps_epi32(t);
    q = _mm256_andnot_si256(_mm256_castps_si256(unord), q);
    store_i32x8_as_i8(out + i, q);
  }
  for (; i < n; ++i) {
    float t = v[i] * inv_scale;
    t = __builtin_nearbyintf(t);
    t = t < -127.0f ? -127.0f : (t > 127.0f ? 127.0f : t);
    out[i] = v[i] != v[i] ? std::int8_t{0} : static_cast<std::int8_t>(t);
  }
}

void quantize_affine_i8(const float* v, std::int8_t* out, std::size_t n,
                        float inv_scale, std::int32_t zp) {
  const __m256 vinv = _mm256_set1_ps(inv_scale);
  const __m256 vzpf = _mm256_set1_ps(static_cast<float>(zp));
  const __m256 lo = _mm256_set1_ps(-128.0f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  const __m256i vzp = _mm256_set1_epi32(zp);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(v + i);
    const __m256 r = _mm256_round_ps(
        _mm256_mul_ps(x, vinv),
        _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
    const __m256 t =
        _mm256_min_ps(_mm256_max_ps(_mm256_add_ps(r, vzpf), lo), hi);
    const __m256 unord = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
    __m256i q = _mm256_cvtps_epi32(t);
    q = _mm256_blendv_epi8(q, vzp, _mm256_castps_si256(unord));
    store_i32x8_as_i8(out + i, q);
  }
  const float zpf = static_cast<float>(zp);
  for (; i < n; ++i) {
    float t = __builtin_nearbyintf(v[i] * inv_scale) + zpf;
    t = t < -128.0f ? -128.0f : (t > 127.0f ? 127.0f : t);
    out[i] = v[i] != v[i] ? static_cast<std::int8_t>(zp)
                          : static_cast<std::int8_t>(t);
  }
}

void scale_i32_f32(const std::int32_t* acc, float* out, std::size_t n,
                   float scale) {
  const __m256 vs = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 f = _mm256_cvtepi32_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i)));
    _mm256_storeu_ps(out + i, _mm256_mul_ps(f, vs));
  }
  for (; i < n; ++i) {
    out[i] = scale * static_cast<float>(acc[i]);
  }
}

// --- sigmoid / tanh (the scalar twins are in vmath.cpp) ---------------------

namespace {

namespace vm = vmath;

__m256 abs_ps(__m256 x) {
  return _mm256_and_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff)));
}

/// exp(-t) for t in [0, kExpMaxArg]; the op sequence of vmath.cpp.
__m256 exp_neg_ps(__m256 t) {
  const __m256 round = _mm256_set1_ps(vm::kRound);
  const __m256 n = _mm256_sub_ps(
      _mm256_add_ps(_mm256_mul_ps(t, _mm256_set1_ps(vm::kLog2e)), round),
      round);
  __m256 s = _mm256_sub_ps(_mm256_mul_ps(n, _mm256_set1_ps(vm::kLn2Hi)), t);
  s = _mm256_add_ps(s, _mm256_mul_ps(n, _mm256_set1_ps(vm::kLn2Lo)));
  const __m256 z = _mm256_mul_ps(s, s);
  __m256 p = _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(vm::kExp0), s),
                           _mm256_set1_ps(vm::kExp1));
  p = _mm256_add_ps(_mm256_mul_ps(p, s), _mm256_set1_ps(vm::kExp2));
  p = _mm256_add_ps(_mm256_mul_ps(p, s), _mm256_set1_ps(vm::kExp3));
  p = _mm256_add_ps(_mm256_mul_ps(p, s), _mm256_set1_ps(vm::kExp4));
  p = _mm256_add_ps(_mm256_mul_ps(p, s), _mm256_set1_ps(vm::kExp5));
  p = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, z), s),
                    _mm256_set1_ps(1.0f));
  const __m256i bits = _mm256_slli_epi32(
      _mm256_sub_epi32(_mm256_set1_epi32(127), _mm256_cvttps_epi32(n)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(bits));
}

__m256 sigmoid_ps(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e =
      exp_neg_ps(_mm256_min_ps(abs_ps(x), _mm256_set1_ps(vm::kExpMaxArg)));
  const __m256 neg = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_LT_OQ);
  const __m256 y = _mm256_div_ps(_mm256_blendv_ps(one, e, neg),
                                 _mm256_add_ps(one, e));
  return _mm256_blendv_ps(y, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

__m256 tanh_ps(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 t = abs_ps(x);
  const __m256 z = _mm256_mul_ps(t, t);
  __m256 p = _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(vm::kTanh0), z),
                           _mm256_set1_ps(vm::kTanh1));
  p = _mm256_sub_ps(_mm256_mul_ps(p, z), _mm256_set1_ps(vm::kTanh2));
  p = _mm256_add_ps(_mm256_mul_ps(p, z), _mm256_set1_ps(vm::kTanh3));
  p = _mm256_sub_ps(_mm256_mul_ps(p, z), _mm256_set1_ps(vm::kTanh4));
  const __m256 small = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(p, z), t), t);
  const __m256 e = exp_neg_ps(
      _mm256_min_ps(_mm256_add_ps(t, t), _mm256_set1_ps(vm::kExpMaxArg)));
  const __m256 big =
      _mm256_div_ps(_mm256_sub_ps(one, e), _mm256_add_ps(one, e));
  __m256 y = _mm256_blendv_ps(
      big, small, _mm256_cmp_ps(t, _mm256_set1_ps(vm::kTanhSmall), _CMP_LT_OQ));
  const __m256 sign =
      _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<int>(0x80000000u)));
  y = _mm256_or_ps(y, _mm256_and_ps(x, sign));
  return _mm256_blendv_ps(y, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

/// Applies `f` 8 lanes at a time; the tail runs through a padded copy.
template <__m256 (*f)(__m256)>
void map_ps(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(y + i, f(_mm256_loadu_ps(x + i)));
  if (i == n) return;
  alignas(32) float tail[8] = {};
  std::memcpy(tail, x + i, (n - i) * sizeof(float));
  _mm256_store_ps(tail, f(_mm256_load_ps(tail)));
  std::memcpy(y + i, tail, (n - i) * sizeof(float));
}

}  // namespace

void sigmoid_f32_avx2(const float* x, float* y, std::size_t n) {
  map_ps<sigmoid_ps>(x, y, n);
}

void tanh_f32_avx2(const float* x, float* y, std::size_t n) {
  map_ps<tanh_ps>(x, y, n);
}

}  // namespace pp::tensor::simd


#else  // !(__AVX2__ && __FMA__)

#include <cstdlib>

namespace pp::tensor::simd {

void nn_i8i32_range(const std::int8_t*, const std::int8_t*, std::int32_t*,
                    std::size_t, std::size_t, std::size_t, std::size_t) {
  std::abort();
}

float finite_max_abs_f32(const float*, std::size_t) { std::abort(); }

void finite_range_f32(const float*, std::size_t, float*, float*) {
  std::abort();
}

void quantize_symmetric_i8(const float*, std::int8_t*, std::size_t, float) {
  std::abort();
}

void quantize_affine_i8(const float*, std::int8_t*, std::size_t, float,
                        std::int32_t) {
  std::abort();
}

void scale_i32_f32(const std::int32_t*, float*, std::size_t, float) {
  std::abort();
}

void sigmoid_f32_avx2(const float*, float*, std::size_t) { std::abort(); }

void tanh_f32_avx2(const float*, float*, std::size_t) { std::abort(); }

}  // namespace pp::tensor::simd

#endif
