// AVX-512 lane of the kSimd kernel: the VNNI (vpdpbusd) int8 products of
// the fused serving step and head. Compiled with per-file -mavx512f
// -mavx512bw -mavx512vnni -ffp-contract=off and run only when
// avx512_vnni_available() (tensor/cpu_dispatch.hpp).
//
// gemm_simd.hpp documents the weight panel and the 128 * rowsum(a)
// correction. Each output row walks its A k-quads once per chunk of up to
// 8 column blocks (128 columns) held in zmm accumulators, skipping every
// all-zero quad, so a one-hot input row costs only its few nonzero quads
// and a dense hidden row streams the panel once per chunk.
//
// Like the AVX2 TUs, this TU instantiates no std:: template: a COMDAT
// symbol could carry AVX-512 code into a baseline TU. GCC 12 also warns
// (-Wmaybe-uninitialized, fatal under -Werror) inside avx512fintrin.h on
// the intrinsics that expand _mm512_undefined_*; use their maskz_ forms
// here.
#include "tensor/gemm_simd.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VNNI__)

#include <immintrin.h>

#include <cstring>

namespace pp::tensor::simd {

namespace {

constexpr std::size_t kBlock = 16;     // i32 output columns per zmm
constexpr std::size_t kMaxBlocks = 8;  // zmm accumulators per chunk

/// acc[b] += panel quad row `p` (blocks b) x broadcast A quad.
template <std::size_t kBlocks>
void dp_quad(__m512i* acc, const unsigned char* p, std::uint32_t quad) {
  const __m512i va = _mm512_set1_epi32(static_cast<int>(quad));
  for (std::size_t b = 0; b < kBlocks; ++b) {
    acc[b] = _mm512_dpbusd_epi32(
        acc[b], _mm512_loadu_si512(p + 64 * b), va);
  }
}

/// Columns [0, 16 * kBlocks) of one output row, less `corr`; only the
/// first `cols` of them are stored.
template <std::size_t kBlocks>
void row_chunk(const std::int8_t* a_row, std::size_t k,
               const unsigned char* panel, std::size_t quad_stride,
               std::int32_t corr, std::int32_t* c_row, std::size_t cols) {
  __m512i acc[kBlocks];
  for (std::size_t b = 0; b < kBlocks; ++b) acc[b] = _mm512_setzero_si512();
  const std::size_t full = k / 4;
  for (std::size_t q = 0; q < full; ++q) {
    std::uint32_t quad;
    std::memcpy(&quad, a_row + 4 * q, sizeof(quad));
    if (quad != 0) dp_quad<kBlocks>(acc, panel + q * quad_stride, quad);
  }
  if (4 * full < k) {  // the zero-padded final quad
    std::uint32_t quad = 0;
    std::memcpy(&quad, a_row + 4 * full, k - 4 * full);
    if (quad != 0) dp_quad<kBlocks>(acc, panel + full * quad_stride, quad);
  }
  const __m512i vcorr = _mm512_set1_epi32(corr);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const __m512i v = _mm512_sub_epi32(acc[b], vcorr);
    const std::size_t left = cols - kBlock * b;
    if (left >= kBlock) {
      _mm512_storeu_si512(c_row + kBlock * b, v);
    } else {
      _mm512_mask_storeu_epi32(c_row + kBlock * b,
                               static_cast<__mmask16>((1u << left) - 1u), v);
    }
  }
}

}  // namespace

void nn_i8i32_vnni(const std::int8_t* a, const unsigned char* panel,
                   std::int32_t* c, std::size_t m, std::size_t k,
                   std::size_t n) {
  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  const std::size_t quad_stride = blocks * 64;
  for (std::size_t i = 0; i < m; ++i) {
    const std::int8_t* a_row = a + i * k;
    std::int32_t rowsum = 0;
    for (std::size_t p = 0; p < k; ++p) rowsum += a_row[p];
    for (std::size_t jb = 0; jb < blocks; jb += kMaxBlocks) {
      const unsigned char* p = panel + 64 * jb;
      std::int32_t* out = c + i * n + kBlock * jb;
      const std::size_t cols = n - kBlock * jb;
      const std::int32_t corr = 128 * rowsum;
      switch (blocks - jb < kMaxBlocks ? blocks - jb : kMaxBlocks) {
        case 1: row_chunk<1>(a_row, k, p, quad_stride, corr, out, cols); break;
        case 2: row_chunk<2>(a_row, k, p, quad_stride, corr, out, cols); break;
        case 3: row_chunk<3>(a_row, k, p, quad_stride, corr, out, cols); break;
        case 4: row_chunk<4>(a_row, k, p, quad_stride, corr, out, cols); break;
        case 5: row_chunk<5>(a_row, k, p, quad_stride, corr, out, cols); break;
        case 6: row_chunk<6>(a_row, k, p, quad_stride, corr, out, cols); break;
        case 7: row_chunk<7>(a_row, k, p, quad_stride, corr, out, cols); break;
        default: row_chunk<8>(a_row, k, p, quad_stride, corr, out, cols); break;
      }
    }
  }
}

}  // namespace pp::tensor::simd

#else  // !(__AVX512F__ && __AVX512BW__ && __AVX512VNNI__)

#include <cstdlib>

namespace pp::tensor::simd {

void nn_i8i32_vnni(const std::int8_t*, const unsigned char*, std::int32_t*,
                   std::size_t, std::size_t, std::size_t) {
  std::abort();
}

}  // namespace pp::tensor::simd

#endif
